package dist

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"os"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/sweep"
)

// WorkerConfig parameterises a Worker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (e.g. "http://host:8080").
	Coordinator string
	// Token is the fleet join secret presented at registration (may be
	// empty for unauthenticated coordinators). Data-plane calls use the
	// per-worker token minted in exchange.
	Token string
	// ID is the self-reported worker name, used in logs and fleet events
	// alongside the coordinator-assigned id (default "host:pid").
	ID string
	// Engine configures the local execution engine. Workers and
	// ShardPackets are honoured; PoolSize and PoolSeed are overridden per
	// lease so the worker's waveform pool always matches the
	// coordinator's pool identity.
	Engine sweep.Config
	// Heartbeat overrides the coordinator-advertised heartbeat interval
	// (tests; zero uses the advertised value).
	Heartbeat time.Duration
	// LongPoll overrides the coordinator-advertised long-poll bound the
	// worker asks for on each lease request (tests; zero uses the
	// advertised value).
	LongPoll time.Duration
	// RetryBase/RetryMax bound the jittered exponential backoff applied
	// to failed coordinator calls (defaults 200ms and 5s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// MemBudget, when positive, is a self-imposed heap ceiling in bytes:
	// the worker samples runtime/metrics heap usage and triggers its own
	// graceful drain (finish the in-flight lease, report it, deregister)
	// the first time live heap objects exceed the budget. Zero disables
	// the watchdog.
	MemBudget int64
	// MemCheckEvery is the heap sampling interval for MemBudget
	// (default 2s; tests shorten it).
	MemCheckEvery time.Duration
	// CPUBudget, when positive, is a self-imposed CPU ceiling in cores —
	// the -mem-budget twin. The worker samples its cumulative process CPU
	// time (from /proc/self/stat where available, falling back to
	// runtime/metrics CPU classes) every CPUCheckEvery, and triggers the
	// same graceful drain as MemBudget once the measured rate stays over
	// budget for CPUSustain consecutive samples. Sustained, not
	// instantaneous: a single busy sampling window (a lease warming its
	// waveform pool, a GC burst) must not cost the fleet a worker. Zero
	// disables the watchdog.
	CPUBudget float64
	// CPUCheckEvery is the CPU sampling interval for CPUBudget (default
	// 2s; tests shorten it).
	CPUCheckEvery time.Duration
	// CPUSustain is how many consecutive over-budget samples trigger the
	// drain (default 3).
	CPUSustain int
	// CPUSample overrides the cumulative process-CPU-seconds source
	// (tests inject a deterministic ramp; nil uses the real process
	// clock).
	CPUSample func() (seconds float64, ok bool)
	// HTTPClient overrides the default client (tests inject the
	// httptest transport or a chaos RoundTripper; production tunes
	// timeouts). Client-level timeouts should exceed the long-poll
	// bound; per-request deadlines are set via contexts.
	HTTPClient *http.Client
	// Log receives structured operational logs with component/worker/
	// lease attrs. Nil discards them.
	Log *slog.Logger
}

func (c WorkerConfig) withDefaults() (WorkerConfig, error) {
	if c.Coordinator == "" {
		return c, fmt.Errorf("dist: worker needs a coordinator URL")
	}
	c.Coordinator = strings.TrimRight(c.Coordinator, "/")
	if c.ID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		c.ID = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 200 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 5 * time.Second
	}
	if c.HTTPClient == nil {
		// No client-level timeout: lease requests legitimately park for
		// the long-poll bound. Per-request contexts carry the deadlines.
		c.HTTPClient = &http.Client{}
	}
	if c.Log == nil {
		c.Log = slog.New(slog.DiscardHandler)
	}
	if c.MemCheckEvery <= 0 {
		c.MemCheckEvery = 2 * time.Second
	}
	if c.CPUCheckEvery <= 0 {
		c.CPUCheckEvery = 2 * time.Second
	}
	if c.CPUSustain <= 0 {
		c.CPUSustain = 3
	}
	return c, nil
}

// errRevoked marks a 403 from the coordinator: this worker's token was
// revoked and it must terminate.
var errRevoked = errors.New("dist: worker revoked by coordinator")

// Worker registers with a coordinator, long-polls it for point-range
// leases and executes them on a local sweep.Engine. Its waveform pool is
// rebuilt whenever a lease names a different pool identity, so pooled
// tallies are always drawn from the exact pool the coordinator
// recorded. Every coordinator call retries transient transport
// failures with capped, jittered exponential backoff; a 401 triggers
// transparent re-registration (a restarted coordinator loses its
// registry), and a 403 — revocation — terminates the worker.
//
// Start with StartWorker. Drain stops it gracefully: the in-flight lease
// finishes and is reported, no new leases are taken, the worker
// deregisters (re-queuing nothing) and Done closes. Close is the hard
// stop: the in-flight lease is abandoned without a result and the
// coordinator re-issues it at TTL expiry — the crash-equivalent path the
// protocol is built around.
type Worker struct {
	cfg    WorkerConfig
	log    *slog.Logger
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	doneCh chan struct{}

	leases  atomic.Int64
	polls   atomic.Int64
	retries atomic.Int64 // backoff sleeps taken (failed coordinator calls)
	reregs  atomic.Int64 // transparent re-registrations after a 401
	results atomic.Int64 // lease results delivered
	drain   atomic.Bool
	cpuRate atomic.Uint64 // math.Float64bits of the last CPU rate sample (cores)
	// curLease holds a curLease naming the lease executing right now
	// (zero value when idle) — surfaced by Stats for /v1/status.
	curLease atomic.Value

	// pollCancel interrupts a parked long-poll so a drain takes effect
	// immediately instead of after the poll deadline.
	pollMu     sync.Mutex
	pollCancel context.CancelFunc

	// Registered identity; zero until the first successful registration,
	// cleared on 401 to force a re-register.
	authMu     sync.Mutex
	workerID   string
	token      string
	advHB      time.Duration
	advPoll    time.Duration
	registered bool

	mu      sync.Mutex
	engine  *sweep.Engine
	poolKey [2]int64 // (size, seed) identity of engine's pool
}

// StartWorker validates cfg and starts the lease loop (registration
// happens in-loop, with backoff, so a worker may start before its
// coordinator is up).
func StartWorker(cfg WorkerConfig) (*Worker, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := &Worker{
		cfg:    cfg,
		log:    cfg.Log.With("component", "worker", "name", cfg.ID),
		ctx:    ctx,
		cancel: cancel,
		doneCh: make(chan struct{}),
	}
	w.wg.Add(1)
	go w.loop()
	if cfg.MemBudget > 0 {
		w.wg.Add(1)
		go w.memWatch()
	}
	if cfg.CPUBudget > 0 {
		w.wg.Add(1)
		go w.cpuWatch()
	}
	return w, nil
}

// memWatch enforces WorkerConfig.MemBudget: it samples live heap bytes
// from runtime/metrics every MemCheckEvery and triggers the ordinary
// graceful drain the first time the budget is exceeded. Draining (not
// dying) means the in-flight lease still completes and is reported; the
// fleet simply loses this worker's capacity before the kernel's OOM
// killer takes it uncleanly.
func (w *Worker) memWatch() {
	defer w.wg.Done()
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	t := time.NewTicker(w.cfg.MemCheckEvery)
	defer t.Stop()
	for {
		select {
		case <-w.ctx.Done():
			return
		case <-t.C:
			if w.drain.Load() {
				return
			}
			metrics.Read(sample)
			if sample[0].Value.Kind() != metrics.KindUint64 {
				return // metric vanished from the runtime; nothing to enforce
			}
			heap := sample[0].Value.Uint64()
			if heap > uint64(w.cfg.MemBudget) {
				w.log.Warn("heap budget exceeded, self-draining",
					"heap_bytes", heap, "budget_bytes", w.cfg.MemBudget)
				w.Drain()
				return
			}
		}
	}
}

// curLease is the value stored in Worker.curLease while a lease runs.
type curLease struct{ lease, job string }

// cpuWatch enforces WorkerConfig.CPUBudget: it differences cumulative
// process CPU seconds across CPUCheckEvery windows into a rate in cores,
// and triggers the same graceful drain as memWatch once the rate has
// stayed over budget for CPUSustain consecutive windows. Like the heap
// watchdog, draining (not dying) lets the in-flight lease complete and
// report before the worker leaves the fleet — capacity is shed before a
// cgroup throttler or a co-tenant starves everything on the box.
func (w *Worker) cpuWatch() {
	defer w.wg.Done()
	sample := w.cfg.CPUSample
	if sample == nil {
		sample = processCPUSeconds
	}
	last, ok := sample()
	if !ok {
		w.log.Warn("no process CPU source; -cpu-budget watchdog disabled")
		return
	}
	lastAt := time.Now()
	over := 0
	t := time.NewTicker(w.cfg.CPUCheckEvery)
	defer t.Stop()
	for {
		select {
		case <-w.ctx.Done():
			return
		case <-t.C:
			if w.drain.Load() {
				return
			}
			cur, ok := sample()
			if !ok {
				return // CPU source vanished; nothing to enforce
			}
			now := time.Now()
			window := now.Sub(lastAt).Seconds()
			if window <= 0 {
				continue
			}
			rate := (cur - last) / window
			last, lastAt = cur, now
			w.cpuRate.Store(math.Float64bits(rate))
			if rate > w.cfg.CPUBudget {
				over++
			} else {
				over = 0
			}
			if over >= w.cfg.CPUSustain {
				w.log.Warn("cpu budget exceeded, self-draining",
					"cpu_cores", rate, "budget_cores", w.cfg.CPUBudget, "sustained_samples", over)
				w.Drain()
				return
			}
		}
	}
}

// Leases reports how many leases this worker has been granted (test and
// monitoring hook).
func (w *Worker) Leases() int64 { return w.leases.Load() }

// Polls reports how many lease requests the worker has issued — the
// no-idle-polling pin: an idle long-polling worker issues a handful of
// these per long-poll period, not one per fixed interval.
func (w *Worker) Polls() int64 { return w.polls.Load() }

// WorkerID returns the coordinator-assigned id ("w3"; empty before the
// first successful registration).
func (w *Worker) WorkerID() string {
	w.authMu.Lock()
	defer w.authMu.Unlock()
	return w.workerID
}

// Done closes when the worker's loop has exited — after deregistration
// on a drain, immediately on a hard Close or revocation.
func (w *Worker) Done() <-chan struct{} { return w.doneCh }

// Draining reports whether a drain has been requested.
func (w *Worker) Draining() bool { return w.drain.Load() }

// Drain begins a graceful shutdown: the in-flight lease (if any) runs to
// completion and is reported, no new leases are taken, and the worker
// deregisters and stops (Done closes). Safe to call repeatedly and from
// signal handlers.
func (w *Worker) Drain() {
	if w.drain.Swap(true) {
		return
	}
	w.log.Info("draining")
	// Unpark a waiting long-poll so the drain is immediate.
	w.pollMu.Lock()
	if w.pollCancel != nil {
		w.pollCancel()
	}
	w.pollMu.Unlock()
}

// Close hard-stops the worker: the lease loop ends, any in-flight lease
// is cancelled without a result (the coordinator re-issues it at TTL
// expiry) and the local engine shuts down.
func (w *Worker) Close() {
	w.cancel()
	w.wg.Wait()
	w.mu.Lock()
	if w.engine != nil {
		w.engine.Close()
		w.engine = nil
	}
	w.mu.Unlock()
}

// loop is the worker's life: register (lazily), long-poll for leases,
// run them, drain or die.
func (w *Worker) loop() {
	defer close(w.doneCh)
	defer w.wg.Done()
	attempt := 0
	for w.ctx.Err() == nil && !w.drain.Load() {
		lease, drain, err := w.requestLease()
		switch {
		case err != nil:
			if errors.Is(err, errRevoked) {
				w.log.Warn("revoked, terminating")
				return
			}
			if w.ctx.Err() == nil && !w.drain.Load() {
				w.log.Warn("lease request failed", "err", err)
				w.backoff(&attempt)
			}
		case drain:
			w.log.Info("coordinator requested drain")
			w.drain.Store(true)
		case lease != nil:
			attempt = 0
			w.leases.Add(1)
			w.runLease(lease)
		default:
			// 204: the long poll timed out with no work — ask again
			// immediately; the coordinator parks us, we don't spin.
			attempt = 0
		}
	}
	if w.drain.Load() && w.ctx.Err() == nil {
		w.deregister()
	}
}

// backoff sleeps for a capped, jittered exponential delay:
// d = RetryBase·2^attempt capped at RetryMax, slept in [d/2, d).
func (w *Worker) backoff(attempt *int) {
	d := w.cfg.RetryBase << *attempt
	if d > w.cfg.RetryMax || d <= 0 {
		d = w.cfg.RetryMax
	} else {
		*attempt++
	}
	w.retries.Add(1)
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	select {
	case <-w.ctx.Done():
	case <-time.After(d):
	}
}

// ---- registration ----

// register exchanges the join secret for this worker's identity and
// token, retrying with backoff until it succeeds, the worker stops, or
// the coordinator rejects the join secret outright.
func (w *Worker) register(ctx context.Context) error {
	attempt := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := w.ctx.Err(); err != nil {
			return err
		}
		var resp RegisterResponse
		status, err := w.client(w.cfg.Token).Do(ctx, http.MethodPost, "/v1/dist/register", RegisterRequest{Worker: w.cfg.ID}, &resp)
		if err == nil && status == http.StatusOK {
			w.authMu.Lock()
			w.workerID = resp.Worker
			w.token = resp.Token
			w.advHB = time.Duration(resp.HeartbeatSec * float64(time.Second))
			w.advPoll = time.Duration(resp.LongPollSec * float64(time.Second))
			w.registered = true
			w.authMu.Unlock()
			w.log.Info("registered", "worker", resp.Worker, "heartbeat", w.advHB, "long_poll", w.advPoll)
			return nil
		}
		if err == nil && (status == http.StatusUnauthorized || status == http.StatusForbidden) {
			// The join secret itself was rejected: permanent misconfig.
			return fmt.Errorf("dist: registration rejected with HTTP %d (bad join secret?)", status)
		}
		if ctx.Err() != nil {
			return ctx.Err() // the caller's deadline or a drain unpark, not a coordinator fault
		}
		w.log.Warn("registration failed, retrying", "err", err, "status", status)
		w.backoff(&attempt)
	}
}

// bearer returns the current data-plane token, registering first if
// needed.
func (w *Worker) bearer(ctx context.Context) (string, error) {
	w.authMu.Lock()
	tok, ok := w.token, w.registered
	w.authMu.Unlock()
	if ok {
		return tok, nil
	}
	if err := w.register(ctx); err != nil {
		return "", err
	}
	w.authMu.Lock()
	tok = w.token
	w.authMu.Unlock()
	return tok, nil
}

// forgetRegistration clears the worker identity after a 401 so the next
// call re-registers (the coordinator restarted and lost its registry).
func (w *Worker) forgetRegistration() {
	w.authMu.Lock()
	w.registered = false
	w.token = ""
	w.authMu.Unlock()
}

// heartbeatInterval returns the effective heartbeat cadence (config
// override, else advertised, else 5s).
func (w *Worker) heartbeatInterval() time.Duration {
	if w.cfg.Heartbeat > 0 {
		return w.cfg.Heartbeat
	}
	w.authMu.Lock()
	defer w.authMu.Unlock()
	if w.advHB > 0 {
		return w.advHB
	}
	return 5 * time.Second
}

// longPoll returns the effective lease-request park bound (config
// override, else advertised, else 30s).
func (w *Worker) longPoll() time.Duration {
	if w.cfg.LongPoll > 0 {
		return w.cfg.LongPoll
	}
	w.authMu.Lock()
	defer w.authMu.Unlock()
	if w.advPoll > 0 {
		return w.advPoll
	}
	return 30 * time.Second
}

// ---- lease execution ----

// engineFor returns the local engine, rebuilding it when the lease's
// pool identity differs from the current engine's.
func (w *Worker) engineFor(l *Lease) *sweep.Engine {
	key := [2]int64{int64(l.PoolSize), l.PoolSeed}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.engine != nil && w.poolKey != key {
		w.engine.Close()
		w.engine = nil
	}
	if w.engine == nil {
		cfg := w.cfg.Engine
		cfg.PoolSize = l.PoolSize
		cfg.PoolSeed = l.PoolSeed
		w.engine = sweep.New(cfg)
		w.poolKey = key
	}
	return w.engine
}

// runLease executes one lease to completion (or abandonment) and reports
// the result.
func (w *Worker) runLease(l *Lease) {
	w.curLease.Store(curLease{lease: l.ID, job: l.Job})
	defer w.curLease.Store(curLease{})
	eng := w.engineFor(l)
	job, err := eng.SubmitPoints(w.ctx, l.Spec, l.Points)
	if err != nil {
		w.report(&LeaseResult{Lease: l.ID, Job: l.Job, Worker: w.cfg.ID, Fingerprint: l.Fingerprint,
			Error: fmt.Sprintf("submit: %v", err)})
		return
	}
	if fp := job.Plan().Fingerprint(); fp != l.Fingerprint {
		job.Cancel()
		w.report(&LeaseResult{Lease: l.ID, Job: l.Job, Worker: w.cfg.ID, Fingerprint: fp,
			Error: fmt.Sprintf("plan fingerprint %s does not match lease %s (coordinator/worker version skew?)", fp, l.Fingerprint)})
		return
	}

	// Heartbeat until the job settles. A 410 (lease re-issued) cancels
	// the local job; a 403 (revoked) cancels it and terminates the
	// worker; a drain directive piggy-backed on the response lets the
	// lease finish and stops the loop afterwards.
	hbDone := make(chan struct{})
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		t := time.NewTicker(w.heartbeatInterval())
		defer t.Stop()
		for {
			select {
			case <-hbDone:
				return
			case <-w.ctx.Done():
				return
			case <-t.C:
				resp, status, err := w.heartbeat(Heartbeat{Lease: l.ID, Worker: w.cfg.ID, DonePackets: job.Progress().DonePackets})
				switch {
				case errors.Is(err, errRevoked):
					w.log.Warn("revoked mid-lease, abandoning", "lease", l.ID, "job", l.Job)
					job.Cancel()
					w.drain.Store(true) // loop exits; deregister will 403 and be dropped
					w.cancel()
					return
				case err != nil:
					// Transient: the next tick is the retry; the lease TTL
					// is several heartbeats deep, so occasional misses are
					// harmless.
					w.log.Warn("heartbeat failed", "lease", l.ID, "err", err)
				case status == http.StatusGone:
					w.log.Warn("lease re-issued elsewhere, abandoning", "lease", l.ID, "job", l.Job)
					job.Cancel()
					return
				case resp.Drain && !w.drain.Load():
					w.log.Info("drain requested mid-lease, finishing first", "lease", l.ID, "job", l.Job)
					w.drain.Store(true)
				}
			}
		}
	}()
	res, err := job.Wait(w.ctx)
	close(hbDone)
	if err != nil {
		if w.ctx.Err() != nil || err == context.Canceled {
			// Worker shutdown or lease re-issue/revocation: abandon
			// silently; re-issue (already done, or at TTL) covers it.
			return
		}
		w.report(&LeaseResult{Lease: l.ID, Job: l.Job, Worker: w.cfg.ID, Fingerprint: l.Fingerprint,
			Error: err.Error()})
		return
	}
	out := &LeaseResult{Lease: l.ID, Job: l.Job, Worker: w.cfg.ID, Fingerprint: l.Fingerprint}
	for _, i := range l.Points {
		pts := res.Points[i]
		jp := sweep.PointTally{Point: i, N: pts[0].N, OK: make([]int, len(pts))}
		for a := range pts {
			jp.OK[a] = pts[a].OK
		}
		out.Points = append(out.Points, jp)
	}
	w.report(out)
}

// report POSTs a lease result, retrying transient failures with backoff;
// a result that cannot be delivered is dropped and the lease TTL
// re-issues the work.
func (w *Worker) report(res *LeaseResult) {
	attempt := 0
	for tries := 0; ; tries++ {
		ctx, cancelReq := context.WithTimeout(w.ctx, 30*time.Second)
		status, err := w.authPost(ctx, "/v1/dist/result", res, nil)
		cancelReq()
		if errors.Is(err, errRevoked) {
			w.log.Warn("result refused: revoked", "lease", res.Lease)
			return
		}
		if err == nil && status < 500 {
			if status >= 400 {
				w.log.Warn("result rejected", "lease", res.Lease, "status", status)
			} else {
				w.results.Add(1)
			}
			return
		}
		if tries >= 6 || w.ctx.Err() != nil {
			w.log.Warn("dropping undeliverable result", "lease", res.Lease, "attempts", tries+1, "err", err, "status", status)
			return
		}
		w.backoff(&attempt)
	}
}

// requestLease long-polls for work. All three results zero means the
// poll deadline passed with no work (ask again).
func (w *Worker) requestLease() (l *Lease, drain bool, err error) {
	wait := w.longPoll()
	// The request context outlives the asked-for wait by a margin so a
	// healthy-but-busy coordinator isn't cut off mid-park, and it is
	// cancellable so Drain can unpark immediately.
	ctx, cancelPoll := context.WithTimeout(w.ctx, wait+15*time.Second)
	w.pollMu.Lock()
	w.pollCancel = cancelPoll
	w.pollMu.Unlock()
	defer func() {
		w.pollMu.Lock()
		w.pollCancel = nil
		w.pollMu.Unlock()
		cancelPoll()
	}()
	if w.drain.Load() {
		return nil, true, nil
	}
	w.polls.Add(1)
	var resp LeaseResponse
	status, err := w.authPost(ctx, "/v1/dist/lease", LeaseRequest{Worker: w.cfg.ID, WaitSec: wait.Seconds()}, &resp)
	if err != nil {
		if w.drain.Load() && w.ctx.Err() == nil {
			return nil, true, nil // Drain unparked the poll, not a real fault
		}
		return nil, false, err
	}
	switch status {
	case http.StatusOK:
		return resp.Lease, resp.Drain, nil
	case http.StatusNoContent:
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("lease request: HTTP %d", status)
	}
}

// heartbeat reports progress and picks up piggy-backed directives.
func (w *Worker) heartbeat(hb Heartbeat) (resp HeartbeatResponse, status int, err error) {
	ctx, cancel := context.WithTimeout(w.ctx, 15*time.Second)
	defer cancel()
	status, err = w.authPost(ctx, "/v1/dist/heartbeat", hb, &resp)
	if err != nil {
		return resp, status, err
	}
	switch status {
	case http.StatusOK, http.StatusGone:
		return resp, status, nil
	default:
		return resp, status, fmt.Errorf("heartbeat: HTTP %d", status)
	}
}

// deregister tells the coordinator this worker is leaving (the drain
// endgame). Best-effort with a short retry: a missed deregister only
// costs the registry a stale entry that prunes itself.
func (w *Worker) deregister() {
	w.authMu.Lock()
	registered := w.registered
	id := w.workerID
	w.authMu.Unlock()
	if !registered {
		return
	}
	attempt := 0
	for tries := 0; tries < 3; tries++ {
		ctx, cancel := context.WithTimeout(w.ctx, 10*time.Second)
		status, err := w.authPost(ctx, "/v1/dist/deregister", struct{}{}, nil)
		cancel()
		if errors.Is(err, errRevoked) || (err == nil && status < 500) {
			w.log.Info("deregistered", "worker", id)
			return
		}
		w.backoff(&attempt)
	}
	w.log.Warn("deregister never reached the coordinator (registry will prune)")
}

// ---- HTTP plumbing ----

// client is the /v1 client presenting token (empty: no credential).
func (w *Worker) client(token string) api.Client {
	return api.Client{Base: w.cfg.Coordinator, Token: token, HTTP: w.cfg.HTTPClient}
}

// authPost sends one data-plane call with the per-worker token,
// transparently re-registering once on 401 (coordinator restart) and
// mapping 403 to errRevoked.
func (w *Worker) authPost(ctx context.Context, path string, body, out any) (int, error) {
	tok, err := w.bearer(ctx)
	if err != nil {
		return 0, err
	}
	status, err := w.client(tok).Do(ctx, http.MethodPost, path, body, out)
	if err == nil && status == http.StatusUnauthorized {
		w.log.Warn("token unknown (coordinator restart?), re-registering")
		w.reregs.Add(1)
		w.forgetRegistration()
		if tok, err = w.bearer(ctx); err != nil {
			return 0, err
		}
		status, err = w.client(tok).Do(ctx, http.MethodPost, path, body, out)
	}
	if err == nil && status == http.StatusForbidden {
		return status, errRevoked
	}
	return status, err
}
