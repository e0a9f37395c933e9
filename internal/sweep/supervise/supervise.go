// Package supervise is the dist tier's autoscaling supervisor: the
// control loop that turns the fleet primitives PR-by-PR hardening left
// behind (revocable tokens, graceful drain, adaptive lease estimates,
// the /v1/dist/events stream) into a self-driving fleet.
//
// # The control loop
//
// A Supervisor is a borg/k8s-shaped observe → decide → actuate loop
// over the coordinator's admin API. Each converge pass it
//
//   - observes: GET /v1/dist/stats (queue depth, in-flight leases, the
//     per-point latency EWMA, the fleet's pacing) and GET
//     /v1/dist/workers (the registry, including each worker's
//     point-progress age);
//   - decides: a target worker count — enough workers that the pending
//     queue drains in about Config.DrainTarget at the observed
//     per-point latency, clamped to [MinWorkers, MaxWorkers], one
//     worker per pending point while no latency estimate exists yet,
//     and MinWorkers when the fleet is idle (MinWorkers 0 scales to
//     zero);
//   - actuates: spawns through the pluggable Spawner when below target
//     (at most one spawn per pass, so each new worker registers and
//     re-shapes the stats before the next is committed), and drains the
//     least-loaded workers when above it.
//
// Passes run every Config.Interval, and immediately when the fleet SSE
// stream (GET /v1/dist/events, consumed with Last-Event-ID resume)
// reports a lifecycle event or a spawned process exits — the ticker is
// the fallback, the event stream the fast path.
//
// # Scale-down is always drain
//
// The supervisor never revokes a worker to shed capacity. Scale-down
// uses graceful drain exclusively: the victim finishes its in-flight
// lease, reports it, deregisters and exits, and no points re-queue. The
// two exceptions to "never revoke" are not scale-downs at all: a stuck
// worker that cannot complete its drain (below) is eventually cut off
// so its lease can requeue, and the registry entry of a worker whose
// spawned process this supervisor watched die is revoked on sight —
// the corpse cannot honour a drain, and revocation re-queues its lease
// immediately instead of waiting out the TTL.
//
// # Crash-loop circuit breaker
//
// Spawn failures and worker crashes (a spawned process exiting with an
// error, or exiting at all within CrashWindow of its spawn without
// being asked to) gate further spawning behind a jittered exponential
// backoff that grows with the number of recent crashes. CrashLimit
// crashes inside CrashWindow open the breaker: the supervisor
// quarantines spawning for Config.Quarantine — surfaced as the
// cpr_supervisor_quarantined gauge, a quarantines counter and a
// "supervisor-quarantine" fleet event — instead of respawning a doomed
// worker forever. When the quarantine lapses the crash history is
// forgiven and spawning half-opens again.
//
// # Stuck-lease detection
//
// The TTL machinery only catches workers that stop heartbeating. A
// worker can also wedge while heartbeating dutifully — deadlocked
// compute, a SIGSTOPped or livelocked process — which no timeout sees.
// The detector drains a worker in either of two states: its freshest
// lease has made zero point progress for Config.StuckAfter
// (WorkerInfo.LastProgressSec, fed by the coordinator's per-lease
// progress timestamps), or it is registered active with no lease and
// has not contacted the coordinator for StuckAfter beyond the fleet's
// long-poll bound (a zombie — a healthy idle worker re-polls every
// long-poll period). A worker already draining (scale-down or operator
// action) that goes equally silent joins the stuck set too: a healthy
// draining worker heartbeats its last lease or deregisters, so silence
// means the drain can never complete. A stuck worker that still has
// not left StuckGrace after detection cannot be cooperating; it is
// revoked so its lease re-queues immediately, and if it is one of ours
// the process is reaped.
//
// # Statelessness and resume
//
// The supervisor keeps no durable state. After kill -9 a restarted
// supervisor rebuilds its world view from GET /v1/dist/workers and the
// event stream: registered workers count toward the target no matter
// who spawned them, so orphans of a previous supervisor life are
// adopted rather than duplicated, and the fleet converges to the same
// target. (Only a spawn that had not yet registered at the moment of
// death can be transiently duplicated; the surplus drains on a later
// pass.)
//
// # Metrics
//
// Stats()/WritePrometheus expose the cpr_supervisor_* families:
// target/live worker gauges, spawn/spawn-failure/crash/quarantine and
// scale-down counters, stuck-drain and stuck-revoke counters, converge
// pass/error counters and the count of fleet events consumed.
// Instance-scoped, like the coordinator's cpr_dist_* series;
// cmd/cprecycle-bench -supervisor mounts them on its -obs endpoint.
package supervise

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"math"
	mrand "math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/sweep/dist"
)

// Config parameterises a Supervisor.
type Config struct {
	// Coordinator is the coordinator's base URL. Required.
	Coordinator string
	// Token is the fleet join secret; the supervisor speaks the
	// join-secret-authenticated admin surface (may be empty for open
	// coordinators).
	Token string
	// Spawner starts new workers. Nil runs the supervisor in
	// observe-and-heal mode: stuck detection and scale-down still act,
	// scale-up deficits are only logged.
	Spawner Spawner
	// MinWorkers/MaxWorkers clamp the target (defaults 0 and 4).
	// MinWorkers 0 lets an idle fleet scale to zero.
	MinWorkers int
	MaxWorkers int
	// Interval is the converge cadence (default 2s). Fleet events and
	// process exits trigger immediate passes regardless.
	Interval time.Duration
	// DrainTarget is the wall-clock the fleet should need to drain the
	// pending queue (default 30s): target ≈ queue × est-per-point ÷
	// DrainTarget. Smaller means more aggressive scale-up.
	DrainTarget time.Duration
	// StuckAfter is how long a lease may make zero point progress — or
	// an idle worker may go silent beyond the long-poll bound — before
	// the worker is drained as stuck (default 2m).
	StuckAfter time.Duration
	// StuckGrace is how long a stuck-drained worker gets to leave before
	// the drain is escalated to a revocation (default StuckAfter).
	StuckGrace time.Duration
	// CrashWindow/CrashLimit define the circuit breaker: CrashLimit
	// crashes within CrashWindow quarantine spawning (defaults 1m, 5).
	// An unrequested exit within CrashWindow of its spawn counts as a
	// crash even when clean — a worker that cannot stay up is a crash
	// loop whatever its exit status.
	CrashWindow time.Duration
	CrashLimit  int
	// Quarantine is how long the opened breaker suppresses spawning
	// before the crash history is forgiven (default 5m).
	Quarantine time.Duration
	// SpawnBackoffBase/SpawnBackoffMax bound the jittered exponential
	// backoff applied after crashes and spawn failures (defaults 1s,
	// 30s).
	SpawnBackoffBase time.Duration
	SpawnBackoffMax  time.Duration
	// RegisterGrace is how long a spawned process may take to appear in
	// the coordinator's registry. Until then it counts as live (so one
	// spawn is not doubled); past it, it is killed and counted as a
	// crash (default 30s, floored at 3× Interval).
	RegisterGrace time.Duration
	// HTTPClient overrides the default client (tests inject the
	// httptest transport). No client-level timeout: the SSE stream is
	// long-lived; converge calls carry per-request contexts.
	HTTPClient *http.Client
	// Log receives structured operational logs. Nil discards them.
	Log *slog.Logger
}

func (c Config) withDefaults() (Config, error) {
	if c.Coordinator == "" {
		return c, fmt.Errorf("supervise: supervisor needs a coordinator URL")
	}
	c.Coordinator = strings.TrimRight(c.Coordinator, "/")
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = 4
	}
	if c.MinWorkers < 0 {
		c.MinWorkers = 0
	}
	if c.MinWorkers > c.MaxWorkers {
		c.MinWorkers = c.MaxWorkers
	}
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.DrainTarget <= 0 {
		c.DrainTarget = 30 * time.Second
	}
	if c.StuckAfter <= 0 {
		c.StuckAfter = 2 * time.Minute
	}
	if c.StuckGrace <= 0 {
		c.StuckGrace = c.StuckAfter
	}
	if c.CrashWindow <= 0 {
		c.CrashWindow = time.Minute
	}
	if c.CrashLimit <= 0 {
		c.CrashLimit = 5
	}
	if c.Quarantine <= 0 {
		c.Quarantine = 5 * time.Minute
	}
	if c.SpawnBackoffBase <= 0 {
		c.SpawnBackoffBase = time.Second
	}
	if c.SpawnBackoffMax <= 0 {
		c.SpawnBackoffMax = 30 * time.Second
	}
	if c.RegisterGrace <= 0 {
		c.RegisterGrace = 30 * time.Second
	}
	if min := 3 * c.Interval; c.RegisterGrace < min {
		c.RegisterGrace = min
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{}
	}
	if c.Log == nil {
		c.Log = slog.New(slog.DiscardHandler)
	}
	return c, nil
}

// procState tracks one spawn this supervisor life owns. Guarded by
// Supervisor.mu.
type procState struct {
	name     string
	proc     Proc
	spawned  time.Time
	draining bool // we asked the coordinator to drain it; a clean exit is expected
	killed   bool // we hard-killed it; any exit is expected
}

// Supervisor converges the fleet onto a demand-derived worker count.
// Start it with Start; stop the loop with Close (the fleet keeps
// running) or Shutdown (owned workers are drained first).
type Supervisor struct {
	cfg    Config
	log    *slog.Logger
	client api.Client // join-secret admin calls to the coordinator
	prefix string     // life-unique spawn-name prefix
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	kick   chan struct{}

	mu               sync.Mutex
	procs            map[string]*procState // by worker name
	nameSeq          int
	crashTimes       []time.Time
	nextSpawnAt      time.Time
	quarantinedUntil time.Time
	stuckDrainedAt   map[string]time.Time // worker id → when stuck-drained
	lastTarget       int
	lastLive         int

	spawns         atomic.Int64
	spawnFailures  atomic.Int64
	crashes        atomic.Int64
	quarantines    atomic.Int64
	scaleDowns     atomic.Int64
	stuckDrains    atomic.Int64
	stuckRevokes   atomic.Int64
	converges      atomic.Int64
	convergeErrors atomic.Int64
	events         atomic.Int64
}

// Start validates cfg and starts the control loop and the fleet event
// watcher. The supervisor is immediately resumable state: its first
// pass adopts whatever workers the registry already holds.
func Start(cfg Config) (*Supervisor, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	raw := make([]byte, 3)
	if _, err := rand.Read(raw); err != nil {
		return nil, fmt.Errorf("supervise: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Supervisor{
		cfg:            cfg,
		log:            cfg.Log.With("component", "supervisor"),
		client:         api.Client{Base: cfg.Coordinator, Token: cfg.Token, HTTP: cfg.HTTPClient},
		prefix:         "sup-" + hex.EncodeToString(raw),
		ctx:            ctx,
		cancel:         cancel,
		kick:           make(chan struct{}, 1),
		procs:          make(map[string]*procState),
		stuckDrainedAt: make(map[string]time.Time),
	}
	s.wg.Add(2)
	go s.loop()
	go s.watchEvents()
	s.log.Info("supervisor started", "coordinator", cfg.Coordinator,
		"min", cfg.MinWorkers, "max", cfg.MaxWorkers, "interval", cfg.Interval,
		"stuck_after", cfg.StuckAfter)
	return s, nil
}

// Close stops the control loop without touching the fleet: workers keep
// running (statelessness is the point — a successor supervisor adopts
// them). Idempotent.
func (s *Supervisor) Close() {
	s.cancel()
	s.wg.Wait()
}

// Shutdown stops the control loop and then winds down every worker this
// life spawned: each is drained (graceful, in-flight leases finish) and
// waited for until ctx expires, when the stragglers are killed. Workers
// it merely adopted are left alone.
func (s *Supervisor) Shutdown(ctx context.Context) {
	s.Close()
	s.mu.Lock()
	owned := make(map[string]*procState, len(s.procs))
	for name, ps := range s.procs {
		owned[name] = ps
	}
	s.mu.Unlock()
	if len(owned) == 0 {
		return
	}
	if workers, err := dist.ListWorkers(ctx, s.client); err == nil {
		for _, wi := range workers {
			if ps, ok := owned[wi.Name]; ok && wi.State == workerActive {
				ps.draining = true
				if err := s.workerAction(ctx, wi.ID, "drain"); err != nil {
					s.log.Warn("shutdown drain failed", "worker", wi.ID, "err", err)
				}
			}
		}
	} else {
		s.log.Warn("shutdown could not list workers; killing spawns", "err", err)
	}
	for name, ps := range owned {
		select {
		case <-ps.proc.Done():
		case <-ctx.Done():
			s.log.Warn("shutdown deadline passed, killing worker", "name", name)
			ps.proc.Kill()
		}
	}
}

// workerAction POSTs a drain or revoke for one worker. 404 is not an
// error to the caller: the worker left between observe and actuate,
// which is the control loop's normal weather.
func (s *Supervisor) workerAction(ctx context.Context, id, action string) error {
	err := dist.WorkerAction(ctx, s.client, id, action)
	if api.IsStatus(err, http.StatusNotFound) {
		return nil
	}
	return err
}

// annotate injects a supervisor-* event into the fleet stream.
// Best-effort: an annotation that cannot land must never stall the
// control loop, so errors are returned for logging only.
func (s *Supervisor) annotate(ctx context.Context, typ, worker, detail string) error {
	return s.client.Call(ctx, http.MethodPost, "/v1/dist/annotate",
		dist.AnnotateRequest{Type: typ, Worker: worker, Detail: detail}, nil)
}

// Kick requests an immediate converge pass (non-blocking; passes
// coalesce).
func (s *Supervisor) Kick() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// loop is the supervisor's life: converge, then sleep until the ticker,
// a kick, or shutdown.
func (s *Supervisor) loop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.Interval)
	defer t.Stop()
	for {
		s.converge()
		select {
		case <-s.ctx.Done():
			return
		case <-t.C:
		case <-s.kick:
		}
	}
}

// action is one actuation (an HTTP call) decided under s.mu and run
// after it is released.
type action func(ctx context.Context)

// converge runs one observe → decide → actuate pass.
func (s *Supervisor) converge() {
	s.converges.Add(1)
	ctx, cancel := context.WithTimeout(s.ctx, 15*time.Second)
	defer cancel()
	var st dist.FleetStats
	err := s.client.Call(ctx, http.MethodGet, "/v1/dist/stats", nil, &st)
	if err == nil {
		var workers []dist.WorkerInfo
		if workers, err = dist.ListWorkers(ctx, s.client); err == nil {
			for _, act := range s.decide(st, workers, time.Now()) {
				act(ctx)
			}
			return
		}
	}
	if s.ctx.Err() == nil {
		s.convergeErrors.Add(1)
		s.log.Warn("converge pass could not observe the coordinator", "err", err)
	}
}

// decide computes this pass's actuations. It holds s.mu throughout and
// performs no I/O; every decision is returned as an action.
func (s *Supervisor) decide(st dist.FleetStats, workers []dist.WorkerInfo, now time.Time) []action {
	var acts []action
	s.mu.Lock()
	defer s.mu.Unlock()

	acts = append(acts, s.detectStuckLocked(workers, st, now)...)

	regByName := make(map[string]dist.WorkerInfo, len(workers))
	active, draining := 0, 0
	for _, wi := range workers {
		regByName[wi.Name] = wi
		if wi.State != workerActive && wi.State != workerDraining {
			continue
		}
		if strings.HasPrefix(wi.Name, s.prefix+"-") {
			if _, alive := s.procs[wi.Name]; !alive {
				// This life spawned it and watched the process die; the
				// registry has not caught up (a kill -9'd worker reads as
				// "active" until its lease TTLs and it is pruned). Not
				// counted, so its replacement can spawn this pass. An
				// active one is revoked on sight: a dead process cannot
				// honour a drain, and revocation re-queues its lease now
				// instead of at TTL expiry.
				if wi.State == workerActive {
					id := wi.ID
					s.log.Warn("revoking registry entry of dead spawned worker", "worker", id, "name", wi.Name)
					acts = append(acts, func(ctx context.Context) {
						if err := s.workerAction(ctx, id, "revoke"); err != nil {
							s.log.Warn("dead-worker revoke failed", "worker", id, "err", err)
						}
					})
				}
				continue
			}
		}
		if wi.State == workerActive {
			active++
		} else if _, stuck := s.stuckDrainedAt[wi.ID]; !stuck {
			// Draining to exit. A stuck one is not counted: it is being
			// replaced, not waited for.
			draining++
		}
	}

	// Reconcile owned processes against the registry: count the not yet
	// registered as live (so a fresh spawn is not doubled) and the
	// drained-and-deregistered as still draining until they exit, kill
	// spawns that never registered within grace, reap revoked ones.
	pending := 0
	for name, ps := range s.procs {
		wi, registered := regByName[name]
		switch {
		case ps.killed:
		case !registered && ps.draining:
			draining++
		case !registered && now.Sub(ps.spawned) < s.cfg.RegisterGrace:
			pending++
		case !registered:
			ps.killed = true
			ps.proc.Kill()
			s.log.Warn("spawned worker never registered, killing", "name", name,
				"grace", s.cfg.RegisterGrace)
			s.recordCrashLocked(now, &acts)
		case wi.State == workerRevoked:
			// Cut off (stuck escalation or admin action): the process is
			// dead to the fleet either way; reap it.
			ps.killed = true
			ps.proc.Kill()
			s.log.Warn("reaping revoked worker", "name", name, "worker", wi.ID)
		}
	}

	// Draining workers take no new work, so they are not live capacity
	// and are never drained twice; but their processes still run, so
	// they count against MaxWorkers until they exit.
	live := active + pending
	target := s.targetFor(st)
	s.lastTarget, s.lastLive = target, live

	if live+draining < target {
		acts = append(acts, s.scaleUpLocked(now)...)
	} else if live > target && active > 0 {
		acts = append(acts, s.scaleDownLocked(workers, live-target)...)
	}
	return acts
}

// targetFor maps fleet demand to a worker count: size the fleet so the
// pending queue drains in about DrainTarget at the observed per-point
// latency; one worker per pending point while no estimate exists (the
// first completed point seeds it); at least one worker while any job is
// still running; MinWorkers when idle.
func (s *Supervisor) targetFor(st dist.FleetStats) int {
	t := 0
	switch {
	case st.QueueDepth == 0:
		// Nothing unleased. In-flight leases are already owned by live
		// workers; they only need the fleet to not scale to zero under
		// them (handled below). A running job can also read as neither
		// queued nor leased for an instant (a lease finishing or being
		// re-queued) and still have an unfinished point.
	case st.LeaseEstSeconds <= 0:
		t = st.QueueDepth
	default:
		t = int(math.Ceil(float64(st.QueueDepth) * st.LeaseEstSeconds / s.cfg.DrainTarget.Seconds()))
	}
	if (st.QueueDepth > 0 || st.LeasesInflight > 0 || st.JobsRunning > 0) && t < 1 {
		t = 1
	}
	if t < s.cfg.MinWorkers {
		t = s.cfg.MinWorkers
	}
	if t > s.cfg.MaxWorkers {
		t = s.cfg.MaxWorkers
	}
	return t
}

// scaleUpLocked commits at most one spawn: rate-limiting scale-up to
// one worker per pass lets each spawn register and re-shape the stats
// before more capacity is committed, and gives the crash-loop breaker a
// clean attempt boundary. Callers hold s.mu.
func (s *Supervisor) scaleUpLocked(now time.Time) []action {
	if s.cfg.Spawner == nil {
		s.log.Warn("below target but no spawner configured",
			"target", s.lastTarget, "live", s.lastLive)
		return nil
	}
	if !s.quarantinedUntil.IsZero() {
		if now.Before(s.quarantinedUntil) {
			return nil
		}
		// Half-open: the quarantine lapsed; forgive the crash history and
		// try again.
		s.quarantinedUntil = time.Time{}
		s.crashTimes = nil
		s.log.Info("quarantine lifted, resuming spawning")
	}
	if now.Before(s.nextSpawnAt) {
		return nil
	}
	s.nameSeq++
	name := fmt.Sprintf("%s-%d", s.prefix, s.nameSeq)
	proc, err := s.cfg.Spawner.Spawn(name)
	if err != nil {
		s.spawnFailures.Add(1)
		s.log.Warn("spawn failed", "name", name, "err", err)
		var acts []action
		s.recordCrashLocked(now, &acts)
		return acts
	}
	ps := &procState{name: name, proc: proc, spawned: now}
	s.procs[name] = ps
	s.spawns.Add(1)
	s.wg.Add(1)
	go s.watchProc(ps)
	s.log.Info("spawned worker", "name", name, "target", s.lastTarget, "live", s.lastLive)
	return []action{func(ctx context.Context) {
		if err := s.annotate(ctx, "supervisor-spawn", "", name); err != nil {
			s.log.Debug("annotate failed", "err", err)
		}
	}}
}

// scaleDownLocked drains the excess workers — always drain, never
// revoke: the victims finish their in-flight leases and nothing
// re-queues. Victims are the least disruptive first: fewest live
// leases, then least recent progress, then youngest. Callers hold s.mu.
func (s *Supervisor) scaleDownLocked(workers []dist.WorkerInfo, excess int) []action {
	cands := make([]dist.WorkerInfo, 0, len(workers))
	for _, wi := range workers {
		if wi.State == workerActive {
			cands = append(cands, wi)
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].Leases != cands[b].Leases {
			return cands[a].Leases < cands[b].Leases
		}
		return cands[a].AgeSec < cands[b].AgeSec
	})
	if excess > len(cands) {
		excess = len(cands)
	}
	var acts []action
	for _, wi := range cands[:excess] {
		if ps, ok := s.procs[wi.Name]; ok {
			ps.draining = true
		}
		s.scaleDowns.Add(1)
		s.log.Info("scaling down, draining worker", "worker", wi.ID, "name", wi.Name,
			"leases", wi.Leases, "target", s.lastTarget, "live", s.lastLive)
		id := wi.ID
		acts = append(acts, func(ctx context.Context) {
			if err := s.workerAction(ctx, id, "drain"); err != nil {
				s.log.Warn("drain failed", "worker", id, "err", err)
			}
		})
	}
	return acts
}

// detectStuckLocked finds workers the TTL machinery cannot see failing:
// heartbeating leases with zero point progress for StuckAfter, and
// active lease-less workers silent beyond the long-poll bound plus
// StuckAfter. Both are drained; a stuck worker still registered
// StuckGrace after its drain is escalated to a revocation so its lease
// re-queues. Callers hold s.mu.
func (s *Supervisor) detectStuckLocked(workers []dist.WorkerInfo, st dist.FleetStats, now time.Time) []action {
	var acts []action
	zombieAfter := s.cfg.StuckAfter.Seconds() + st.LongPollSec
	seen := make(map[string]bool, len(workers))
	for _, wi := range workers {
		seen[wi.ID] = true
		switch wi.State {
		case workerActive:
			wedged := wi.LastProgressSec > s.cfg.StuckAfter.Seconds()
			zombie := wi.Leases == 0 && wi.IdleSec > zombieAfter
			if !wedged && !zombie {
				continue
			}
			reason := "zero lease progress"
			if zombie {
				reason = "silent beyond long-poll bound"
			}
			s.stuckDrainedAt[wi.ID] = now
			s.stuckDrains.Add(1)
			s.log.Warn("stuck worker, draining", "worker", wi.ID, "name", wi.Name,
				"reason", reason, "last_progress_sec", wi.LastProgressSec, "idle_sec", wi.IdleSec)
			id, detail := wi.ID, fmt.Sprintf("drained %s: %s", wi.ID, reason)
			acts = append(acts, func(ctx context.Context) {
				if err := s.workerAction(ctx, id, "drain"); err != nil {
					s.log.Warn("stuck drain failed", "worker", id, "err", err)
				}
				if err := s.annotate(ctx, "supervisor-stuck", id, detail); err != nil {
					s.log.Debug("annotate failed", "err", err)
				}
			})
		case workerDraining:
			at, tracked := s.stuckDrainedAt[wi.ID]
			if !tracked {
				if wi.IdleSec <= zombieAfter {
					continue
				}
				// A drain this worker is not acting on — a scale-down or
				// operator drain of a worker that then wedged. Healthy
				// draining workers either heartbeat their last lease or
				// deregister; silence beyond the long-poll bound means
				// neither. Start the stuck clock; revocation follows at
				// StuckGrace.
				s.stuckDrainedAt[wi.ID] = now
				s.stuckDrains.Add(1)
				s.log.Warn("draining worker gone silent, starting stuck clock",
					"worker", wi.ID, "name", wi.Name, "idle_sec", wi.IdleSec)
				id, detail := wi.ID, fmt.Sprintf("draining worker %s silent beyond long-poll bound", wi.ID)
				acts = append(acts, func(ctx context.Context) {
					if err := s.annotate(ctx, "supervisor-stuck", id, detail); err != nil {
						s.log.Debug("annotate failed", "err", err)
					}
				})
				continue
			}
			if now.Sub(at) < s.cfg.StuckGrace {
				continue
			}
			// The one sanctioned revocation: a drain a wedged worker
			// cannot acknowledge would strand its lease until TTL —
			// forever, if it is still heartbeating. Cut it off.
			delete(s.stuckDrainedAt, wi.ID)
			s.stuckRevokes.Add(1)
			s.log.Warn("stuck worker ignored its drain, revoking", "worker", wi.ID, "name", wi.Name)
			id := wi.ID
			acts = append(acts, func(ctx context.Context) {
				if err := s.workerAction(ctx, id, "revoke"); err != nil {
					s.log.Warn("stuck revoke failed", "worker", id, "err", err)
				}
				if err := s.annotate(ctx, "supervisor-stuck", id, "revoked "+id+": drain not acknowledged"); err != nil {
					s.log.Debug("annotate failed", "err", err)
				}
			})
		default:
			delete(s.stuckDrainedAt, wi.ID)
		}
	}
	for id := range s.stuckDrainedAt {
		if !seen[id] {
			delete(s.stuckDrainedAt, id) // it left; the drain worked
		}
	}
	return acts
}

// recordCrashLocked folds one crash or spawn failure into the breaker:
// the recent-crash window slides, the next spawn backs off jittered-
// exponentially in the number of recent crashes, and at CrashLimit the
// breaker opens. Callers hold s.mu; actions are appended to *acts.
func (s *Supervisor) recordCrashLocked(now time.Time, acts *[]action) {
	s.crashes.Add(1)
	keep := s.crashTimes[:0]
	for _, t := range s.crashTimes {
		if now.Sub(t) <= s.cfg.CrashWindow {
			keep = append(keep, t)
		}
	}
	s.crashTimes = append(keep, now)
	n := len(s.crashTimes)
	d := s.cfg.SpawnBackoffBase << (n - 1)
	if d <= 0 || d > s.cfg.SpawnBackoffMax {
		d = s.cfg.SpawnBackoffMax
	}
	d = d/2 + time.Duration(mrand.Int63n(int64(d/2)+1))
	s.nextSpawnAt = now.Add(d)
	if n >= s.cfg.CrashLimit && s.quarantinedUntil.IsZero() {
		s.quarantinedUntil = now.Add(s.cfg.Quarantine)
		s.quarantines.Add(1)
		s.log.Error("crash loop detected, quarantining spawns",
			"crashes", n, "window", s.cfg.CrashWindow, "quarantine", s.cfg.Quarantine)
		detail := fmt.Sprintf("%d crashes in %s; spawning quarantined for %s", n, s.cfg.CrashWindow, s.cfg.Quarantine)
		*acts = append(*acts, func(ctx context.Context) {
			if err := s.annotate(ctx, "supervisor-quarantine", "", detail); err != nil {
				s.log.Debug("annotate failed", "err", err)
			}
		})
	}
}

// watchProc waits for one owned process to exit, applies crash
// accounting, and kicks the loop so replacement is immediate.
func (s *Supervisor) watchProc(ps *procState) {
	defer s.wg.Done()
	select {
	case <-s.ctx.Done():
		return
	case <-ps.proc.Done():
	}
	err := ps.proc.Err()
	now := time.Now()
	var acts []action
	s.mu.Lock()
	delete(s.procs, ps.name)
	uptime := now.Sub(ps.spawned)
	expected := ps.draining || ps.killed
	crash := !expected && (err != nil || uptime < s.cfg.CrashWindow)
	if crash {
		s.recordCrashLocked(now, &acts)
	}
	s.mu.Unlock()
	if crash {
		s.log.Warn("worker crashed", "name", ps.name, "uptime", uptime.Round(time.Millisecond), "err", err)
	} else {
		s.log.Info("worker exited", "name", ps.name, "uptime", uptime.Round(time.Millisecond), "err", err)
	}
	if len(acts) > 0 {
		ctx, cancel := context.WithTimeout(s.ctx, 10*time.Second)
		for _, act := range acts {
			act(ctx)
		}
		cancel()
	}
	s.Kick()
}

// watchEvents consumes the fleet SSE stream so lifecycle changes
// trigger immediate converge passes; the stream resumes with
// Last-Event-ID across reconnects. Purely an accelerant: with the
// stream down, the ticker still converges every Interval.
func (s *Supervisor) watchEvents() {
	defer s.wg.Done()
	lastSeq := -1
	for s.ctx.Err() == nil {
		err := s.streamEvents(&lastSeq)
		if s.ctx.Err() != nil {
			return
		}
		if err != nil {
			s.log.Debug("fleet event stream broke, reconnecting", "err", err)
		}
		select {
		case <-s.ctx.Done():
			return
		case <-time.After(s.cfg.Interval/2 + time.Duration(mrand.Int63n(int64(s.cfg.Interval/2)+1))):
		}
	}
}

// streamEvents consumes one connection's worth of fleet events,
// tracking the last seen seq for resume.
func (s *Supervisor) streamEvents(lastSeq *int) error {
	last := ""
	if *lastSeq >= 0 {
		last = strconv.Itoa(*lastSeq)
	}
	body, err := s.client.Open(s.ctx, "/v1/dist/events", last)
	if err != nil {
		return err
	}
	defer body.Close()
	return api.ReadSSE(body, func(ev api.Event) bool {
		if ev.Event == "" {
			return true
		}
		if n, err := strconv.Atoi(ev.ID); err == nil {
			*lastSeq = n
		}
		s.events.Add(1)
		switch ev.Event {
		case "worker-join", "worker-leave", "worker-drain", "worker-revoke",
			"lease-expire", "job-submit", "job-done", "job-failed":
			s.Kick()
		}
		return true
	})
}
