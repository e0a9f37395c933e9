package dist

import (
	"context"
	"crypto/rand"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/experiments"
	"repro/internal/sweep"
	"repro/internal/sweep/store"
	"repro/internal/wifi"
)

// Config parameterises a Coordinator.
type Config struct {
	// LeasePoints, when > 0, pins every lease to a fixed point count
	// (the pre-adaptive behaviour; useful to force granularity in
	// tests). Zero — the default — sizes leases adaptively: each lease
	// targets LeaseTarget of wall-clock work based on the job's observed
	// per-point latency, starting from a single-point probe.
	LeasePoints int
	// LeaseTarget is the wall-clock duration an adaptive lease aims for
	// (default 4× Heartbeat): long enough to amortise HTTP round trips,
	// short enough that a worker loss re-queues little work.
	LeaseTarget time.Duration
	// LeaseTTL is how long a lease may go without a heartbeat before its
	// points are re-issued (default 30s).
	LeaseTTL time.Duration
	// Heartbeat is the interval the coordinator advertises to workers at
	// registration (default LeaseTTL/6, at most 5s) — comfortably under
	// LeaseTTL so one dropped heartbeat cannot expire a lease.
	Heartbeat time.Duration
	// LongPoll bounds how long a lease request may be parked waiting for
	// work (default 30s). Workers are told this bound at registration.
	LongPoll time.Duration
	// PoolSize/PoolSeed pin the waveform-pool identity pooled jobs are
	// computed under; every worker builds its pool from these (default
	// wifi.DefaultPoolSize, seed 0).
	PoolSize int
	PoolSeed int64
	// StoreDir, when set, makes jobs durable: completed points land in a
	// content-addressed result store (internal/sweep/store) shared across
	// jobs, and each job writes a small JSON manifest <dir>/<id>.json.
	// New replays the manifests against the store index, resuming
	// interrupted jobs at their first missing point — and because points
	// are keyed by content, repeated sweeps and cross-job duplicate
	// points are served from the store instead of the fleet.
	StoreDir string
	// StoreNoSync skips the store's fsyncs (tests/benches only).
	StoreNoSync bool
	// StoreMaxBytes bounds the store's segment bytes (0 = unbounded):
	// past it, least-recently-hit segments are evicted — except those
	// holding points of live jobs, which stay pinned until the job
	// finishes. Wired from -store-max-bytes.
	StoreMaxBytes int64
	// Token is the fleet join secret: required (as "Authorization:
	// Bearer <Token>") on registration and on admin calls. Data-plane
	// calls authenticate with the per-worker token minted at
	// registration instead. An empty Token leaves registration and admin
	// open (localhost experimentation).
	Token string
	// Log receives structured operational logs (lease grants, re-issues,
	// failures) with component/job/worker/lease attrs. Nil discards them.
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 30 * time.Second
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = c.LeaseTTL / 6
		if c.Heartbeat > 5*time.Second {
			c.Heartbeat = 5 * time.Second
		}
	}
	if c.LeaseTarget <= 0 {
		c.LeaseTarget = 4 * c.Heartbeat
	}
	if c.LongPoll <= 0 {
		c.LongPoll = 30 * time.Second
	}
	if c.PoolSize <= 0 {
		c.PoolSize = wifi.DefaultPoolSize
	}
	if c.Log == nil {
		c.Log = slog.New(slog.DiscardHandler)
	}
	return c
}

// maxAdaptiveLease caps adaptive lease sizing: beyond this the HTTP
// round trip is already fully amortised and a worker loss would re-queue
// too much work.
const maxAdaptiveLease = 128

// Worker lifecycle states.
const (
	workerActive   = "active"
	workerDraining = "draining"
	workerRevoked  = "revoked"
)

// workerState is one registered worker. All fields are guarded by
// Coordinator.wmu.
type workerState struct {
	id       string // coordinator-assigned ("w3")
	name     string // self-reported (host:pid)
	token    string // per-worker bearer token ("w3.<hex>")
	state    string // workerActive | workerDraining | workerRevoked
	joined   time.Time
	lastSeen time.Time
	leases   map[string]string // live lease id → job id
	granted  int64             // leases ever granted
}

// Coordinator owns distributed sweep jobs: it decomposes submitted specs
// into per-point work, hands adaptively-sized point-range leases to
// registered workers over long-polling HTTP (Handler), merges their
// tallies bit-identically to a single in-process engine, persists
// completed points for crash recovery, and publishes per-point events
// to subscribers. It runs no sweep computation itself and spawns no
// goroutines of its own: all state advances inside worker HTTP requests
// and Submit calls (long-polled lease requests park on the caller's
// goroutine), so a coordinator is cheap enough to colocate with
// anything.
type Coordinator struct {
	cfg Config
	log *slog.Logger

	// Fleet counters, atomically maintained at the event sites and
	// exported by Stats/WritePrometheus. Monotonic over this
	// coordinator's life (manifest replay does not reconstruct them).
	leasesGranted atomic.Int64
	leaseExpiries atomic.Int64
	requeuedPts   atomic.Int64
	revocations   atomic.Int64

	// planPool satisfies Spec.Request for pooled specs at planning time;
	// its entries encode lazily and the coordinator never runs a packet,
	// so it stays empty.
	planPool *wifi.WaveformPool

	// store is the content-addressed result store (nil when the
	// coordinator is not durable). Shared across jobs: a point computed
	// by any job — or any previous coordinator life — serves every later
	// job that plans the same point.
	store *store.Store

	mu        sync.Mutex
	jobs      sweep.JobTable[*Job]
	leaseJobs map[string]string // lease id → job id
	closed    bool

	// Worker registry. Lock order: j.mu may be held when taking wmu;
	// never take j.mu or c.mu while holding wmu.
	wmu        sync.Mutex
	workers    map[string]*workerState
	nextWorker int

	// wake broadcast for parked long-poll lease requests: wakeCh is
	// closed and replaced whenever work may have appeared (job submit,
	// points re-queued, drain/revoke) — waiters re-check and re-park.
	wakeMu sync.Mutex
	wakeCh chan struct{}
}

// New creates a coordinator. With cfg.StoreDir set the directory is
// created if missing, the content-addressed result store is opened
// (salvaging every intact record a crash left behind), and the job
// manifests are replayed:
// every <id>.json becomes a job (same ID as its previous life) with its
// stored points restored from the index — fully-stored jobs come back as
// done, partial ones resume leasing at their first missing point. The
// worker registry starts empty in every life — workers of a previous
// life re-register on their first 401.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:       cfg,
		log:       cfg.Log.With("component", "coordinator"),
		planPool:  wifi.NewWaveformPool(cfg.PoolSize, cfg.PoolSeed),
		leaseJobs: make(map[string]string),
		workers:   make(map[string]*workerState),
		wakeCh:    make(chan struct{}),
	}
	if cfg.StoreDir != "" {
		st, stats, err := store.Open(cfg.StoreDir, store.Options{NoSync: cfg.StoreNoSync, MaxBytes: cfg.StoreMaxBytes})
		if err != nil {
			return nil, err
		}
		c.store = st
		if stats.DamagedSegments > 0 {
			c.log.Warn("store recovered with damage", "segments", stats.Segments,
				"records", stats.Records, "damaged", stats.DamagedSegments)
		}
		if err := c.replayManifests(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Store returns the coordinator's content-addressed result store (nil
// when not durable) — the history surface queries it read-only.
func (c *Coordinator) Store() *store.Store { return c.store }

// PoolIdentity returns the pool size and seed the coordinator keys
// stored results under — what history recording and store lookups
// outside the coordinator must use to reproduce its keys.
func (c *Coordinator) PoolIdentity() (size int, seed int64) {
	return c.cfg.PoolSize, c.cfg.PoolSeed
}

// Close stops accepting work. Pending points stay in the manifests
// (when durable) for the next coordinator life; completed tallies are
// already durable in the store.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	c.wake() // release parked long-polls promptly
}

// wake releases every parked long-poll lease request so it re-checks for
// work (or for a drain/revoke directive).
func (c *Coordinator) wake() {
	c.wakeMu.Lock()
	close(c.wakeCh)
	c.wakeCh = make(chan struct{})
	c.wakeMu.Unlock()
}

// wakeWait returns the channel a parked request should select on. Must
// be fetched BEFORE re-checking for work, so a wake between check and
// park is never lost.
func (c *Coordinator) wakeWait() <-chan struct{} {
	c.wakeMu.Lock()
	defer c.wakeMu.Unlock()
	return c.wakeCh
}

// manifestPath returns the durable manifest file of job id ("" when the
// coordinator is not durable).
func (c *Coordinator) manifestPath(id string) string {
	if c.cfg.StoreDir == "" {
		return ""
	}
	return filepath.Join(c.cfg.StoreDir, id+".json")
}

// replayManifests rebuilds jobs from the manifest files: each names a
// spec whose completed points are then looked up in the store index —
// resume is an index read, not a log replay.
func (c *Coordinator) replayManifests() error {
	entries, err := os.ReadDir(c.cfg.StoreDir)
	if err != nil {
		return err
	}
	var ids []string
	for _, e := range entries {
		if id, ok := strings.CutSuffix(e.Name(), ".json"); ok && !e.IsDir() {
			ids = append(ids, id)
		}
	}
	// Replay in submission order (jN ids sort numerically), and continue
	// numbering after the highest replayed id.
	sort.Slice(ids, func(a, b int) bool { return sweep.JobSeq(ids[a]) < sweep.JobSeq(ids[b]) })
	for _, id := range ids {
		path := c.manifestPath(id)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var hdr sweep.Manifest
		if err := json.Unmarshal(data, &hdr); err != nil || hdr.V != 1 {
			// Unparsable manifests must not crash-loop the coordinator: a
			// foreign file can land in the directory. It holds no state we
			// could resume, so skip it (the file is left for inspection) —
			// but still burn its id so a future Submit cannot collide.
			c.log.Warn("skipping unreadable manifest", "path", path, "err", err)
			c.jobs.Burn(id)
			continue
		}
		if hdr.Spec.Pool && (hdr.PoolSize != c.cfg.PoolSize || hdr.PoolSeed != c.cfg.PoolSeed) {
			return fmt.Errorf("dist: manifest %s: pool identity mismatch (recorded %d/%d, configured %d/%d) — pooled points are only mergeable under one pool",
				path, hdr.PoolSize, hdr.PoolSeed, c.cfg.PoolSize, c.cfg.PoolSeed)
		}
		j, err := c.newJob(hdr.Spec)
		if err != nil {
			return fmt.Errorf("dist: replaying %s: %w", path, err)
		}
		if len(j.points) != hdr.Points {
			return fmt.Errorf("dist: manifest %s: %d points recorded but the spec plans %d (version skew?)", path, hdr.Points, len(j.points))
		}
		j.ID = id
		j.mu.Lock()
		restored := j.absorbStoreLocked(false)
		j.mu.Unlock()
		c.jobs.Insert(id, j)
		c.log.Info("replayed job from store", "job", id, "restored", restored, "points", len(j.points))
	}
	return nil
}

// newJob plans a spec into an un-registered job (no ID, no manifest yet).
func (c *Coordinator) newJob(spec sweep.Spec) (*Job, error) {
	spec = spec.Normalised()
	req, err := spec.Request(c.planPool)
	if err != nil {
		return nil, err
	}
	plan, err := experiments.NewSweepPlan(req)
	if err != nil {
		return nil, err
	}
	j := &Job{
		Spec:        spec,
		coord:       c,
		plan:        plan,
		fingerprint: plan.Fingerprint(),
		points:      make([]distPoint, len(plan.Points)),
		leases:      make(map[string]*lease),
	}
	for i := range plan.Points {
		pkts := plan.Points[i].Cfg.Packets
		j.points[i].packets = pkts
		j.points[i].arms = len(plan.Points[i].Cfg.Receivers)
		j.totalPackets += int64(pkts)
	}
	var unpin func()
	if c.store != nil {
		j.keys = sweep.PlanKeys(plan, spec.Pool, c.cfg.PoolSize, c.cfg.PoolSeed)
		// Pin the job's key set so the MaxBytes GC cannot collect records
		// a live job still references; released when the job settles.
		unpin = c.store.Pin(j.keys...)
	}
	j.JobLog = sweep.NewJobLog(len(plan.Points), unpin)
	j.rebuildPending()
	return j, nil
}

// Submit plans and registers a sweep job. The job completes as workers
// lease and report its points; it has no context — a distributed job
// outlives any one connection and is cancelled via Remove.
func (c *Coordinator) Submit(spec sweep.Spec) (*Job, error) {
	j, err := c.newJob(spec)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		err := fmt.Errorf("dist: coordinator is closed")
		j.Finish(nil, nil, err) // releases the job's store pins
		return nil, err
	}
	j.ID = c.jobs.Add(j)
	c.mu.Unlock()

	if path := c.manifestPath(j.ID); path != "" {
		hdr := sweep.Manifest{V: 1, Spec: j.Spec, Points: len(j.points)}
		if j.Spec.Pool {
			hdr.PoolSize = c.cfg.PoolSize
			hdr.PoolSeed = c.cfg.PoolSeed
		}
		data, err := json.Marshal(hdr)
		if err == nil {
			err = store.AtomicWrite(path, data, !c.cfg.StoreNoSync)
		}
		if err != nil {
			c.Remove(j.ID)
			return nil, err
		}
	}
	c.log.Info("job submitted", "job", j.ID, "experiment", j.Spec.Experiment, "points", len(j.points))

	// Serve whatever the store already holds before any lease goes out: a
	// repeated identical sweep — or one sharing points with an earlier
	// job — completes partly or wholly without the fleet. This is the one
	// site that counts store misses: each point starts its fleet life
	// here exactly once.
	j.mu.Lock()
	j.absorbStoreLocked(true)
	if len(j.points) == 0 {
		j.finalizeLocked()
	}
	j.mu.Unlock()
	c.wake() // parked lease requests should see the new work now
	return j, nil
}

// Job returns a job by id, or nil.
func (c *Coordinator) Job(id string) *Job {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jobs.Get(id)
}

// Jobs returns every job in submission order.
func (c *Coordinator) Jobs() []*Job {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jobs.List()
}

// Remove cancels a running job, forgets it, and deletes its manifest (a
// removed durable job must not resurrect on restart). Its completed
// tallies stay in the store — they are content-addressed, not owned by
// the job, and still serve future sweeps. Reports whether the job
// existed.
func (c *Coordinator) Remove(id string) bool {
	c.mu.Lock()
	j, ok := c.jobs.Remove(id)
	if ok {
		for lid, jid := range c.leaseJobs {
			if jid == id {
				delete(c.leaseJobs, lid)
			}
		}
	}
	c.mu.Unlock()
	if !ok {
		return false
	}
	j.mu.Lock()
	j.failLocked(context.Canceled)
	j.mu.Unlock()
	if path := c.manifestPath(id); path != "" {
		os.Remove(path)
	}
	return true
}

// ---- worker registry ----

// registerWorker mints a new fleet member: a unique id and a revocable
// bearer token. Exported to the HTTP layer via POST /v1/dist/register.
func (c *Coordinator) registerWorker(name string) (*workerState, RegisterResponse, error) {
	raw := make([]byte, 16)
	if _, err := rand.Read(raw); err != nil {
		return nil, RegisterResponse{}, fmt.Errorf("dist: minting worker token: %w", err)
	}
	now := time.Now()
	c.wmu.Lock()
	c.pruneWorkersLocked(now)
	c.nextWorker++
	ws := &workerState{
		id:       fmt.Sprintf("w%d", c.nextWorker),
		name:     name,
		state:    workerActive,
		joined:   now,
		lastSeen: now,
		leases:   make(map[string]string),
	}
	ws.token = ws.id + "." + hex.EncodeToString(raw)
	c.workers[ws.id] = ws
	c.wmu.Unlock()
	c.log.Info("worker registered", "worker", ws.id, "name", name)
	resp := RegisterResponse{
		Worker:       ws.id,
		Token:        ws.token,
		HeartbeatSec: c.cfg.Heartbeat.Seconds(),
		LongPollSec:  c.cfg.LongPoll.Seconds(),
		TTLSec:       c.cfg.LeaseTTL.Seconds(),
	}
	return ws, resp, nil
}

// pruneWorkersLocked forgets workers with no live leases that have not
// been heard from for 10 lease TTLs: crashed workers that never
// deregistered, and old revocation tombstones. Callers hold c.wmu.
func (c *Coordinator) pruneWorkersLocked(now time.Time) {
	horizon := 10 * c.cfg.LeaseTTL
	for id, ws := range c.workers {
		if len(ws.leases) == 0 && now.Sub(ws.lastSeen) > horizon {
			delete(c.workers, id)
			c.log.Warn("pruned silent worker", "worker", id, "name", ws.name, "idle", now.Sub(ws.lastSeen).Round(time.Second))
		}
	}
}

// authWorker resolves a request's bearer token to a registered worker.
// The returned status is 200 on success, 401 for unknown/absent tokens
// (the worker should re-register) and 403 for revoked workers (the
// worker should terminate). Token comparison is constant-time.
func (c *Coordinator) authWorker(r *http.Request) (*workerState, int) {
	const prefix = "Bearer "
	h := r.Header.Get("Authorization")
	if !strings.HasPrefix(h, prefix) {
		return nil, http.StatusUnauthorized
	}
	tok := strings.TrimPrefix(h, prefix)
	id, _, ok := strings.Cut(tok, ".")
	if !ok {
		return nil, http.StatusUnauthorized
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	ws := c.workers[id]
	if ws == nil || subtle.ConstantTimeCompare([]byte(tok), []byte(ws.token)) != 1 {
		return nil, http.StatusUnauthorized
	}
	if ws.state == workerRevoked {
		return nil, http.StatusForbidden
	}
	ws.lastSeen = time.Now()
	return ws, http.StatusOK
}

// workerDirective reports the worker's current lifecycle flags.
func (c *Coordinator) workerDirective(ws *workerState) (draining, revoked bool) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return ws.state == workerDraining, ws.state == workerRevoked
}

// activeWorkers counts workers eligible for new leases.
func (c *Coordinator) activeWorkers() int {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	n := 0
	for _, ws := range c.workers {
		if ws.state == workerActive {
			n++
		}
	}
	return n
}

// trackLease / untrackLease maintain the worker→lease index. Both may
// be called with j.mu held (j.mu → wmu is the sanctioned order).
func (c *Coordinator) trackLease(workerID, leaseID, jobID string) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if ws := c.workers[workerID]; ws != nil {
		ws.leases[leaseID] = jobID
		ws.granted++
	}
}

func (c *Coordinator) untrackLease(workerID, leaseID string) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if ws := c.workers[workerID]; ws != nil {
		delete(ws.leases, leaseID)
	}
}

// WorkerInfos snapshots the registry for the admin API, ordered by
// registration. Each info carries the worker's point-progress age — the
// seconds since the freshest of its live leases last advanced its
// heartbeat packet count (−1 with no live lease) — so the -fleet
// dashboard can tell a busy worker from a wedged one. The registry is snapshotted under wmu first
// and lease progress resolved per job afterwards (j.mu must never be
// taken under wmu).
func (c *Coordinator) WorkerInfos() []WorkerInfo {
	now := time.Now()
	type leaseRef struct{ worker, lease, job string }
	var refs []leaseRef
	c.wmu.Lock()
	out := make([]WorkerInfo, 0, len(c.workers))
	for _, ws := range c.workers {
		out = append(out, WorkerInfo{
			ID: ws.id, Name: ws.name, State: ws.state,
			Leases: len(ws.leases), Granted: ws.granted,
			AgeSec:          now.Sub(ws.joined).Seconds(),
			IdleSec:         now.Sub(ws.lastSeen).Seconds(),
			LastProgressSec: -1,
		})
		for lid, jid := range ws.leases {
			refs = append(refs, leaseRef{worker: ws.id, lease: lid, job: jid})
		}
	}
	c.wmu.Unlock()
	progress := make(map[string]float64, len(refs)) // worker id → min age
	for _, ref := range refs {
		j := c.Job(ref.job)
		if j == nil {
			continue
		}
		j.mu.Lock()
		l, ok := j.leases[ref.lease]
		var age float64
		if ok {
			age = now.Sub(l.progress).Seconds()
		}
		j.mu.Unlock()
		if !ok {
			continue
		}
		if cur, seen := progress[ref.worker]; !seen || age < cur {
			progress[ref.worker] = age
		}
	}
	for i := range out {
		if age, ok := progress[out[i].ID]; ok {
			out[i].LastProgressSec = age
		}
	}
	sort.Slice(out, func(a, b int) bool { return workerSeq(out[a].ID) < workerSeq(out[b].ID) })
	return out
}

// workerSeq returns the registration number of a "wN" worker id.
func workerSeq(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "w"))
	return n
}

// DrainWorker marks a worker draining: it finishes its in-flight lease,
// takes no new ones, deregisters and exits. The signal reaches it on its
// next heartbeat or (immediately, via wake) parked lease request.
// Reports whether the worker is known.
func (c *Coordinator) DrainWorker(id string) bool {
	c.wmu.Lock()
	ws := c.workers[id]
	if ws == nil || ws.state != workerActive {
		known := ws != nil
		c.wmu.Unlock()
		return known
	}
	ws.state = workerDraining
	name := ws.name
	c.wmu.Unlock()
	c.log.Info("worker draining", "worker", id, "name", name)
	c.wake() // its parked long-poll should return the drain directive now
	return true
}

// RevokeWorker cuts a worker off: its token is invalidated (kept as a
// tombstone so late calls see 403, not 401), and its live leases are
// dropped with their points re-queued immediately — a replacement can
// pick them up without waiting for the TTL. Reports whether the worker
// is known.
func (c *Coordinator) RevokeWorker(id string) bool {
	c.wmu.Lock()
	ws := c.workers[id]
	if ws == nil {
		c.wmu.Unlock()
		return false
	}
	ws.state = workerRevoked
	name := ws.name
	orphans := make(map[string]string, len(ws.leases))
	for lid, jid := range ws.leases {
		orphans[lid] = jid
	}
	ws.leases = make(map[string]string)
	c.wmu.Unlock()
	c.revocations.Add(1)
	c.log.Warn("worker revoked", "worker", id, "name", name, "requeued_leases", len(orphans))
	c.requeueOrphans(orphans, "worker revoked")
	c.wake()
	return true
}

// deregisterWorker removes a worker from the fleet (the drain endgame,
// or an explicit leave). Any leases it still holds re-queue immediately.
func (c *Coordinator) deregisterWorker(ws *workerState) {
	c.wmu.Lock()
	delete(c.workers, ws.id)
	orphans := make(map[string]string, len(ws.leases))
	for lid, jid := range ws.leases {
		orphans[lid] = jid
	}
	ws.leases = make(map[string]string)
	c.wmu.Unlock()
	c.log.Info("worker deregistered", "worker", ws.id, "name", ws.name)
	if len(orphans) > 0 {
		c.requeueOrphans(orphans, "worker deregistered")
		c.wake()
	}
}

// requeueOrphans drops a departed worker's leases job-side so their
// points go back to pending without waiting for the TTL.
func (c *Coordinator) requeueOrphans(orphans map[string]string, reason string) {
	for lid, jid := range orphans {
		if j := c.Job(jid); j != nil {
			j.dropLease(lid, reason)
		} else {
			c.forgetLease(lid)
		}
	}
}

// ---- lease dispatch ----

// awaitLease finds work for a registered worker, parking the request up
// to wait when none is pending. It returns a granted lease, or
// drain=true when the worker should wind down, or (nil, false) when the
// deadline passed with no work. Wakeups: job submit, point re-queue,
// drain/revoke, and lease-TTL expiry (via a timer aimed at the earliest
// outstanding deadline, so expired leases re-issue promptly even on an
// otherwise idle fleet).
func (c *Coordinator) awaitLease(ctx context.Context, ws *workerState, wait time.Duration) (l *Lease, drain bool) {
	deadline := time.Now().Add(wait)
	for {
		wch := c.wakeWait() // fetch before checking: no lost wakeups
		draining, revoked := c.workerDirective(ws)
		if revoked {
			return nil, false
		}
		if draining {
			return nil, true
		}
		if l := c.tryLease(ws); l != nil {
			return l, false
		}
		now := time.Now()
		if !now.Before(deadline) {
			return nil, false
		}
		sleep := deadline.Sub(now)
		if exp := c.nextExpiry(); !exp.IsZero() {
			// Re-check just past the earliest lease deadline so its
			// points re-issue without waiting out the long poll.
			if d := exp.Sub(now) + 5*time.Millisecond; d < sleep {
				if d < time.Millisecond {
					d = time.Millisecond
				}
				sleep = d
			}
		}
		t := time.NewTimer(sleep)
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, false
		case <-wch:
			t.Stop()
		case <-t.C:
		}
	}
}

// tryLease scans jobs in submission order (reaping expired leases as it
// goes) and grants the first available work to ws.
func (c *Coordinator) tryLease(ws *workerState) *Lease {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	jobs := c.jobs.List()
	c.mu.Unlock()
	now := time.Now()
	share := c.activeWorkers()
	for _, j := range jobs {
		if l := j.grantLease(ws, now, share); l != nil {
			return l
		}
	}
	return nil
}

// nextExpiry returns the earliest outstanding lease deadline across all
// jobs (zero time when none).
func (c *Coordinator) nextExpiry() time.Time {
	c.mu.Lock()
	jobs := c.jobs.List()
	c.mu.Unlock()
	var min time.Time
	for _, j := range jobs {
		j.mu.Lock()
		for _, l := range j.leases {
			if min.IsZero() || l.expires.Before(min) {
				min = l.expires
			}
		}
		j.mu.Unlock()
	}
	return min
}

// jobForLease resolves a lease id to its job (nil when unknown — e.g.
// granted by a previous coordinator life).
func (c *Coordinator) jobForLease(leaseID string) *Job {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jobs.Get(c.leaseJobs[leaseID])
}

// forgetLease drops a resolved lease from the index.
func (c *Coordinator) forgetLease(leaseID string) {
	c.mu.Lock()
	delete(c.leaseJobs, leaseID)
	c.mu.Unlock()
}

// distPoint is one plan point's coordinator-side state.
type distPoint struct {
	packets int
	arms    int
	done    bool
	n       int
	ok      []int
}

// lease is the coordinator-side record of a granted lease.
type lease struct {
	id      string
	worker  string // assigned worker id
	points  []int
	granted time.Time
	expires time.Time
	// hbPackets is the worker's last heartbeat-reported packet count,
	// folded into Progress.DonePackets while the lease runs.
	hbPackets int64
	// progress is when the lease last made observable point progress: set
	// at grant and advanced only by heartbeats whose DonePackets grew. A
	// lease that keeps heartbeating with a frozen count — a wedged worker
	// the TTL machinery cannot see — shows up as a growing progress age
	// here, which WorkerInfos/Stats expose.
	progress time.Time
}

// Job is one distributed sweep job. All methods are safe for concurrent
// use. Its point stream, Wait and Done come from the embedded
// sweep.JobLog, whose lock nests inside j.mu.
type Job struct {
	ID   string
	Spec sweep.Spec // normalised
	*sweep.JobLog

	coord        *Coordinator
	plan         *experiments.SweepPlan
	fingerprint  string
	totalPackets int64

	mu         sync.Mutex
	points     []distPoint
	pending    []int // unleased incomplete point indexes, ascending
	leases     map[string]*lease
	nextLease  int
	donePoints int
	restored   int
	// estPerPoint is the moving estimate of wall-clock seconds one plan
	// point costs, fed by result timing and heartbeat packet progress;
	// zero until the first observation (adaptive sizing probes with a
	// single point until then).
	estPerPoint float64
	// keys are the per-point content-address store keys (nil when the
	// coordinator is not durable).
	keys []store.Key
}

// Plan returns the job's sweep plan (read-only).
func (j *Job) Plan() *experiments.SweepPlan { return j.plan }

// Fingerprint returns the job's plan fingerprint.
func (j *Job) Fingerprint() string { return j.fingerprint }

// rebuildPending recomputes the pending queue from point states. Callers
// hold j.mu (or own the job exclusively).
func (j *Job) rebuildPending() {
	j.pending = j.pending[:0]
	leased := make(map[int]bool)
	for _, l := range j.leases {
		for _, p := range l.points {
			leased[p] = true
		}
	}
	for i := range j.points {
		if !j.points[i].done && !leased[i] {
			j.pending = append(j.pending, i)
		}
	}
}

// observeLatencyLocked folds one per-point wall-clock sample (seconds)
// into the adaptive-sizing estimate. Callers hold j.mu.
func (j *Job) observeLatencyLocked(perPoint float64) {
	if perPoint <= 0 {
		return
	}
	if j.estPerPoint <= 0 {
		j.estPerPoint = perPoint
		return
	}
	j.estPerPoint = 0.7*j.estPerPoint + 0.3*perPoint
}

// leaseSizeLocked decides how many points the next lease may carry.
// Fixed when Config.LeasePoints > 0; otherwise sized so the lease runs
// for ~LeaseTarget at the job's observed per-point latency, never more
// than this worker's fair share of the pending queue (activeWorkers
// live workers splitting it), and probing with 1 point until a latency
// estimate exists. Callers hold j.mu.
func (j *Job) leaseSizeLocked(activeWorkers int) int {
	cfg := j.coord.cfg
	if cfg.LeasePoints > 0 {
		return cfg.LeasePoints
	}
	if j.estPerPoint <= 0 {
		return 1
	}
	n := int(cfg.LeaseTarget.Seconds()/j.estPerPoint + 0.5)
	if n < 1 {
		n = 1
	}
	if n > maxAdaptiveLease {
		n = maxAdaptiveLease
	}
	if activeWorkers > 1 {
		share := (len(j.pending) + activeWorkers - 1) / activeWorkers
		if share < 1 {
			share = 1
		}
		if n > share {
			n = share
		}
	}
	return n
}

// grantLease reaps expired leases, absorbs any points another job has
// meanwhile stored, and carves the next lease off the pending queue: the
// longest run of consecutive point indexes from its head, capped at the
// adaptive (or pinned) lease size.
func (j *Job) grantLease(ws *workerState, now time.Time, activeWorkers int) *Lease {
	cfg := j.coord.cfg
	j.mu.Lock()
	defer j.mu.Unlock()
	j.absorbStoreLocked(false)
	if j.Finished() {
		return nil
	}
	for id, l := range j.leases {
		if now.After(l.expires) {
			j.coord.leaseExpiries.Add(1)
			j.coord.requeuedPts.Add(int64(len(l.points)))
			j.coord.log.Warn("lease expired, re-issuing", "job", j.ID, "lease", id, "worker", l.worker, "points", len(l.points))
			delete(j.leases, id)
			j.coord.forgetLease(id)
			j.coord.untrackLease(l.worker, id)
			j.rebuildPending()
		}
	}
	if len(j.pending) == 0 {
		return nil
	}
	take := 1
	size := j.leaseSizeLocked(activeWorkers)
	for take < len(j.pending) && take < size && j.pending[take] == j.pending[take-1]+1 {
		take++
	}
	points := append([]int(nil), j.pending[:take]...)
	j.pending = j.pending[take:]
	j.nextLease++
	l := &lease{
		id:       fmt.Sprintf("%s-l%d", j.ID, j.nextLease),
		worker:   ws.id,
		points:   points,
		granted:  now,
		expires:  now.Add(cfg.LeaseTTL),
		progress: now,
	}
	j.leases[l.id] = l
	j.coord.mu.Lock()
	j.coord.leaseJobs[l.id] = j.ID
	j.coord.mu.Unlock()
	j.coord.trackLease(ws.id, l.id, j.ID)
	out := &Lease{
		ID:          l.id,
		Job:         j.ID,
		Spec:        j.Spec,
		Points:      points,
		Fingerprint: j.fingerprint,
		TTLSec:      cfg.LeaseTTL.Seconds(),
	}
	if j.Spec.Pool {
		out.PoolSize = cfg.PoolSize
		out.PoolSeed = cfg.PoolSeed
	}
	j.coord.leasesGranted.Add(1)
	j.coord.log.Info("lease granted", "job", j.ID, "lease", l.id, "worker", ws.id, "points", len(points), "first", points[0])
	return out
}

// dropLease removes one live lease (revocation, deregistration) and
// re-queues its points immediately.
func (j *Job) dropLease(leaseID, reason string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	l, ok := j.leases[leaseID]
	if !ok {
		return
	}
	delete(j.leases, leaseID)
	j.coord.forgetLease(leaseID)
	j.coord.leaseExpiries.Add(1)
	j.coord.requeuedPts.Add(int64(len(l.points)))
	j.coord.log.Warn("lease dropped", "job", j.ID, "lease", leaseID, "reason", reason, "points", len(l.points))
	j.rebuildPending()
}

// avgPacketsLocked is the mean packet count of the lease's points.
// Callers hold j.mu.
func (j *Job) avgPacketsLocked(l *lease) float64 {
	if len(l.points) == 0 {
		return 0
	}
	total := 0
	for _, p := range l.points {
		total += j.points[p].packets
	}
	return float64(total) / float64(len(l.points))
}

// heartbeat re-arms a live lease and feeds packet progress into the
// latency estimate. It reports false when the lease is unknown or
// already resolved — the worker should abandon that work.
func (j *Job) heartbeat(hb Heartbeat, now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	l, ok := j.leases[hb.Lease]
	if !ok || j.Finished() {
		return false
	}
	l.expires = now.Add(j.coord.cfg.LeaseTTL)
	if hb.DonePackets > l.hbPackets {
		l.hbPackets = hb.DonePackets
		l.progress = now
	}
	if hb.DonePackets > 0 {
		if avg := j.avgPacketsLocked(l); avg > 0 {
			perPacket := now.Sub(l.granted).Seconds() / float64(hb.DonePackets)
			j.observeLatencyLocked(perPacket * avg)
		}
	}
	return true
}

// checkPointShape validates a reported point against the plan.
func (j *Job) checkPointShape(idx int, p sweep.PointTally) error {
	if idx < 0 || idx >= len(j.points) {
		return fmt.Errorf("point %d outside [0,%d)", idx, len(j.points))
	}
	if p.N != j.points[idx].packets || len(p.OK) != j.points[idx].arms {
		return fmt.Errorf("point %d shape mismatch (%d packets/%d arms reported, want %d/%d)",
			idx, p.N, len(p.OK), j.points[idx].packets, j.points[idx].arms)
	}
	return nil
}

// markDoneLocked records a completed point and publishes its event,
// reporting whether the point was newly marked (false: it was already
// done — the caller is seeing a duplicate). persist controls whether the
// tally is also written to the store (points absorbed FROM the store are
// already durable). Callers hold j.mu.
func (j *Job) markDoneLocked(idx int, p sweep.PointTally, persist bool) bool {
	pt := &j.points[idx]
	if pt.done {
		return false
	}
	pt.done = true
	pt.n = p.N
	pt.ok = append([]int(nil), p.OK...)
	j.donePoints++
	if persist && j.coord.store != nil {
		rec := store.Record{Key: j.keys[idx], Tally: store.Tally{N: pt.n, OK: pt.ok}}
		if err := j.coord.store.Put(time.Now(), rec); err != nil {
			j.failLocked(fmt.Errorf("dist: store put: %w", err))
			return true
		}
	}
	j.Publish(sweep.PointEvent{Point: idx, N: pt.n, OK: pt.ok, DonePoints: j.donePoints, Points: len(j.points)})
	return true
}

// absorbStoreLocked restores every not-yet-done point whose
// content-address key the store already holds — points computed by
// other jobs or previous coordinator lives. Returns
// how many points it restored; when any were, the pending queue is
// rebuilt, leases made fully redundant are cancelled, and a now-complete
// job is finalized. countMisses makes absent points count as store
// misses (only the first, submit-time scan does, so each point counts
// its miss exactly once). Callers hold j.mu.
func (j *Job) absorbStoreLocked(countMisses bool) int {
	st := j.coord.store
	if st == nil || j.Finished() {
		return 0
	}
	restored := 0
	now := time.Now()
	for i := range j.points {
		if j.points[i].done {
			continue
		}
		t, ok := st.Get(j.keys[i])
		if !ok || t.N != j.points[i].packets || len(t.OK) != j.points[i].arms {
			if countMisses {
				store.Misses.Inc()
			}
			continue
		}
		store.Hits.Inc()
		st.Touch(j.keys[i], now)
		j.markDoneLocked(i, sweep.PointTally{Point: i, N: t.N, OK: t.OK}, false)
		j.restored++
		restored++
		if j.Finished() { // markDoneLocked can fail the job
			return restored
		}
	}
	if restored > 0 {
		j.rebuildPending()
		j.cancelRedundantLocked()
		if j.donePoints == len(j.points) {
			j.finalizeLocked()
		}
	}
	return restored
}

// cancelRedundantLocked drops live leases every one of whose points is
// already done — a slow worker's late result (or a store absorb) just
// completed them, so the re-run in flight is redundant. The dropped
// lease's worker learns on its next heartbeat (410 Gone) and abandons
// the local job. Callers hold j.mu.
func (j *Job) cancelRedundantLocked() {
	for id, l := range j.leases {
		redundant := true
		for _, p := range l.points {
			if !j.points[p].done {
				redundant = false
				break
			}
		}
		if !redundant {
			continue
		}
		delete(j.leases, id)
		j.coord.forgetLease(id)
		j.coord.untrackLease(l.worker, id)
		j.coord.log.Info("lease cancelled, points completed elsewhere", "job", j.ID, "lease", id, "worker", l.worker, "points", len(l.points))
	}
}

// result merges a worker's lease result. Success tallies are idempotent
// — a point already completed (by a faster re-lease or a duplicate POST)
// is skipped and counted as a dedupe, which is sound because tallies are
// deterministic. A result from a lease no longer live (expired or
// re-issued under a slow-but-alive worker) is still accepted for any
// point not yet done — counted as a late accept — and any re-run lease
// made fully redundant by it is cancelled in flight. An error result
// fails the job only while its lease is live; stale errors are dropped.
func (j *Job) result(res LeaseResult) error {
	now := time.Now()
	j.mu.Lock()
	defer j.mu.Unlock()
	l, live := j.leases[res.Lease]
	if live {
		delete(j.leases, res.Lease)
		j.coord.untrackLease(l.worker, res.Lease)
		defer j.coord.forgetLease(res.Lease)
	}
	if j.Finished() {
		return nil
	}
	if res.Error != "" {
		if live {
			j.failLocked(fmt.Errorf("dist: worker %s failed lease %s: %s", res.Worker, res.Lease, res.Error))
		} else {
			j.coord.log.Warn("dropping stale lease error", "job", j.ID, "worker", res.Worker, "err", res.Error)
		}
		return nil
	}
	if res.Fingerprint != j.fingerprint {
		// Defence in depth: workers verify the fingerprint before
		// running, so a mismatch here is a protocol violation, not a
		// recoverable state. Refuse the tallies and put the points back.
		if live {
			j.rebuildPending()
			j.coord.wake()
		}
		return fmt.Errorf("dist: job %s: result fingerprint %s does not match plan %s", j.ID, res.Fingerprint, j.fingerprint)
	}
	if live && len(l.points) > 0 {
		j.observeLatencyLocked(now.Sub(l.granted).Seconds() / float64(len(l.points)))
	}
	inLease := make(map[int]bool)
	if live {
		for _, p := range l.points {
			inLease[p] = true
		}
	}
	newlyMarked := 0
	for _, p := range res.Points {
		if err := j.checkPointShape(p.Point, p); err != nil {
			j.failLocked(fmt.Errorf("dist: worker %s: %w", res.Worker, err))
			return nil
		}
		if j.markDoneLocked(p.Point, p, true) {
			newlyMarked++
			if !live {
				store.LateAccepts.Inc()
				j.coord.log.Info("late result accepted", "job", j.ID, "lease", res.Lease, "worker", res.Worker, "point", p.Point)
			}
		} else {
			store.Dedupes.Inc()
		}
		delete(inLease, p.Point)
		if j.Finished() {
			return nil
		}
	}
	// A late result may have completed every point of a re-issued lease
	// still in flight: cancel those so the redundant re-run stops at its
	// next heartbeat instead of burning packets.
	if newlyMarked > 0 {
		j.cancelRedundantLocked()
	}
	// Leased points the result did not cover go back to pending.
	if live && len(inLease) > 0 {
		j.rebuildPending()
		j.coord.wake()
	}
	if j.donePoints == len(j.points) {
		j.finalizeLocked()
	}
	return nil
}

// finalizeLocked assembles the table once every point is complete.
// Callers hold j.mu.
func (j *Job) finalizeLocked() {
	if j.Finished() {
		return
	}
	// A lease can outlive its points (a slow worker's stale result
	// finished the job while a re-issue was still running): drop the
	// bookkeeping so heartbeat progress stops inflating DonePackets and
	// the coordinator-level lease index does not leak.
	j.dropLeasesLocked()
	results := make([][]experiments.PSRPoint, len(j.points))
	arms := j.plan.Points
	for i := range j.points {
		kinds := arms[i].Cfg.Receivers
		pts := make([]experiments.PSRPoint, len(kinds))
		for a, k := range kinds {
			pts[a] = experiments.PSRPoint{Kind: k, OK: j.points[i].ok[a], N: j.points[i].n}
		}
		results[i] = pts
	}
	table, err := j.plan.Assemble(results)
	j.Finish(table, results, err)
}

// failLocked records the job's first error. Callers hold j.mu.
func (j *Job) failLocked(err error) {
	if j.Finished() {
		return
	}
	j.dropLeasesLocked()
	j.Finish(nil, nil, err)
}

// dropLeasesLocked forgets every outstanding lease, job-, worker- and
// coordinator-side. Callers hold j.mu (the j.mu → c.mu/c.wmu nesting
// matches grantLease's expiry reaping).
func (j *Job) dropLeasesLocked() {
	for id, l := range j.leases {
		delete(j.leases, id)
		j.coord.forgetLease(id)
		j.coord.untrackLease(l.worker, id)
	}
}

// Progress reports the job's execution state in the same shape as an
// in-process engine job, so the HTTP API is identical in both modes.
func (j *Job) Progress() sweep.Progress {
	j.mu.Lock()
	defer j.mu.Unlock()
	p := sweep.Progress{
		ID:             j.ID,
		Experiment:     j.Spec.Experiment,
		Points:         len(j.points),
		DonePoints:     j.donePoints,
		RestoredPoints: j.restored,
		Packets:        j.totalPackets,
	}
	for i := range j.points {
		if j.points[i].done {
			p.DonePackets += int64(j.points[i].n)
		}
	}
	for _, l := range j.leases {
		p.DonePackets += l.hbPackets
	}
	j.Outcome(&p)
	return p
}

// ---- HTTP layer ----

// Handler returns the worker-tier HTTP API (the /v1/dist/ endpoints).
// Registration and admin routes are guarded by the join secret; the
// data-plane routes by the per-worker tokens it mints.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	writeJSON := func(w http.ResponseWriter, status int, v any) {
		if err := api.WriteJSON(w, status, v); err != nil {
			c.log.Warn("writing response", "err", err)
		}
	}
	readJSON := func(w http.ResponseWriter, r *http.Request, v any) bool {
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(v); err != nil {
			api.Error(w, http.StatusBadRequest, err)
			return false
		}
		return true
	}
	// worker wraps a data-plane handler with per-worker token auth.
	worker := func(h func(ws *workerState, w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			ws, status := c.authWorker(r)
			if status != http.StatusOK {
				w.Header().Set("WWW-Authenticate", `Bearer realm="cprecycle-dist"`)
				code, msg := "unauthorized", "unknown worker token (re-register)"
				if status == http.StatusForbidden {
					code, msg = "forbidden", "worker revoked"
				}
				api.ErrorCode(w, status, code, msg)
				return
			}
			h(ws, w, r)
		}
	}
	// admin wraps a control-plane handler with join-secret auth.
	admin := func(h http.HandlerFunc) http.HandlerFunc {
		if c.cfg.Token == "" {
			return h
		}
		return api.BearerAuth(c.cfg.Token, h).ServeHTTP
	}

	mux.HandleFunc("POST /v1/dist/register", admin(func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		if !readJSON(w, r, &req) {
			return
		}
		_, resp, err := c.registerWorker(req.Worker)
		if err != nil {
			api.Error(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}))

	mux.HandleFunc("POST /v1/dist/lease", worker(func(ws *workerState, w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !readJSON(w, r, &req) {
			return
		}
		wait := time.Duration(req.WaitSec * float64(time.Second))
		if wait < 0 {
			wait = 0
		}
		if wait > c.cfg.LongPoll {
			wait = c.cfg.LongPoll
		}
		l, drain := c.awaitLease(r.Context(), ws, wait)
		switch {
		case drain:
			writeJSON(w, http.StatusOK, LeaseResponse{Drain: true})
		case l != nil:
			writeJSON(w, http.StatusOK, LeaseResponse{Lease: l})
		default:
			w.WriteHeader(http.StatusNoContent)
		}
	}))

	mux.HandleFunc("POST /v1/dist/result", worker(func(ws *workerState, w http.ResponseWriter, r *http.Request) {
		var res LeaseResult
		if !readJSON(w, r, &res) {
			return
		}
		res.Worker = ws.id
		j := c.Job(res.Job)
		if j == nil {
			// Unknown job: removed, or from a store-less previous life.
			// Nothing to merge into; the worker's work is simply dropped.
			writeJSON(w, http.StatusOK, map[string]string{"status": "dropped"})
			return
		}
		if err := j.result(res); err != nil {
			api.Error(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}))

	mux.HandleFunc("POST /v1/dist/heartbeat", worker(func(ws *workerState, w http.ResponseWriter, r *http.Request) {
		var hb Heartbeat
		if !readJSON(w, r, &hb) {
			return
		}
		j := c.jobForLease(hb.Lease)
		if j == nil || !j.heartbeat(hb, time.Now()) {
			api.ErrorCode(w, http.StatusGone, "gone", "lease revoked")
			return
		}
		draining, _ := c.workerDirective(ws)
		writeJSON(w, http.StatusOK, HeartbeatResponse{Status: "ok", Drain: draining})
	}))

	mux.HandleFunc("POST /v1/dist/deregister", worker(func(ws *workerState, w http.ResponseWriter, r *http.Request) {
		c.deregisterWorker(ws)
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}))

	mux.HandleFunc("GET /v1/dist/workers", admin(func(w http.ResponseWriter, r *http.Request) {
		page, err := api.ParsePage(r, 100, 1000)
		if err != nil {
			api.Error(w, http.StatusBadRequest, err)
			return
		}
		// Newest-first, like /v1/jobs: the workers that just joined are
		// the ones an operator is usually looking for.
		infos := c.WorkerInfos()
		for i, jj := 0, len(infos)-1; i < jj; i, jj = i+1, jj-1 {
			infos[i], infos[jj] = infos[jj], infos[i]
		}
		writeJSON(w, http.StatusOK, api.Paginate(infos, page))
	}))

	mux.HandleFunc("POST /v1/dist/workers/{id}/drain", admin(func(w http.ResponseWriter, r *http.Request) {
		if !c.DrainWorker(r.PathValue("id")) {
			api.ErrorCode(w, http.StatusNotFound, "not_found", "no such worker")
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "draining"})
	}))

	mux.HandleFunc("POST /v1/dist/workers/{id}/revoke", admin(func(w http.ResponseWriter, r *http.Request) {
		if !c.RevokeWorker(r.PathValue("id")) {
			api.ErrorCode(w, http.StatusNotFound, "not_found", "no such worker")
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "revoked"})
	}))

	return mux
}
