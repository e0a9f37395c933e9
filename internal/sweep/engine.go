package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/sweep/store"
	"repro/internal/wifi"
)

// Config parameterises an Engine.
type Config struct {
	// Workers bounds the worker pool (default GOMAXPROCS).
	Workers int
	// ShardPackets is the maximum packets per shard (default 64): the
	// scheduling granularity and the cancellation latency bound.
	ShardPackets int
	// PoolSize is the number of pre-encoded waveforms per (grid, MCS) in
	// the shared pool jobs can opt into (default wifi.DefaultPoolSize).
	PoolSize int
	// PoolSeed seeds the pool's deterministic waveform generation.
	PoolSeed int64
	// Store, when set, is the content-addressed result store the engine
	// checkpoints through: completed points are written as they finish,
	// and at submit every point already present (same plan fingerprint,
	// pool identity and point identity) is restored instead of computed.
	Store *store.Store
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.ShardPackets <= 0 {
		c.ShardPackets = 64
	}
	if c.PoolSize <= 0 {
		c.PoolSize = wifi.DefaultPoolSize
	}
	return c
}

// Engine is the sharded sweep service. One engine serves any number of
// concurrent jobs over a single bounded worker pool and owns the shared
// waveform pool. Create with New, submit with Submit, stop with Close.
type Engine struct {
	cfg  Config
	pool *wifi.WaveformPool

	tasks chan shard
	quit  chan struct{}
	wg    sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	nextID int
	closed bool
}

// shard is one schedulable unit: a packet range of one point of one job.
type shard struct {
	job   *Job
	point int
	lo    int
	hi    int
}

// New starts an engine with cfg.Workers workers.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:   cfg,
		pool:  wifi.NewWaveformPool(cfg.PoolSize, cfg.PoolSeed),
		tasks: make(chan shard),
		quit:  make(chan struct{}),
		jobs:  make(map[string]*Job),
	}
	for w := 0; w < cfg.Workers; w++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// Pool returns the engine's shared waveform pool.
func (e *Engine) Pool() *wifi.WaveformPool { return e.pool }

// PoolIdentity returns the pool size and seed the engine keys stored
// results under (post-defaults) — what history recording and store
// lookups outside the engine must use to reproduce its keys.
func (e *Engine) PoolIdentity() (size int, seed int64) {
	return e.cfg.PoolSize, e.cfg.PoolSeed
}

// Close stops the workers, cancelling any running jobs first.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	jobs := make([]*Job, 0, len(e.jobs))
	for _, j := range e.jobs {
		jobs = append(jobs, j)
	}
	e.mu.Unlock()
	for _, j := range jobs {
		j.Cancel()
	}
	close(e.quit)
	e.wg.Wait()
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		select {
		case <-e.quit:
			return
		case sh := <-e.tasks:
			e.runShard(sh)
		}
	}
}

func (e *Engine) runShard(sh shard) {
	j := sh.job
	ps := j.points[sh.point]
	if j.ctx.Err() != nil {
		j.completeShard(sh.point, nil, 0, j.ctx.Err())
		return
	}
	counts := make([]int, len(ps.plan.Receivers()))
	n, err := ps.plan.RunRange(j.ctx, sh.lo, sh.hi, counts)
	j.completeShard(sh.point, counts, n, err)
}

// Submit validates the spec, plans every point, restores any point the
// configured result store already holds, and schedules the remaining
// shards. The returned job is already running; cancelling ctx cancels it.
func (e *Engine) Submit(ctx context.Context, spec Spec) (*Job, error) {
	return e.submit(ctx, spec, nil)
}

// SubmitPoints is Submit restricted to a subset of the sweep plan's
// points (by plan index, any order, no duplicates): only those points are
// planned and executed, and the job produces per-point tallies but no
// assembled table (a table needs every point). This is the distributed
// worker's entry point — a lease names a point range of the full plan —
// but is usable by any caller that wants one slice of a sweep. Subset
// jobs read and write the result store like full jobs do: points are
// content-addressed, so a slice's tallies are interchangeable with a
// full run's.
func (e *Engine) SubmitPoints(ctx context.Context, spec Spec, points []int) (*Job, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("sweep: no points selected")
	}
	return e.submit(ctx, spec, points)
}

func (e *Engine) submit(ctx context.Context, spec Spec, subset []int) (*Job, error) {
	req, err := spec.Request(e.pool)
	if err != nil {
		return nil, err
	}
	plan, err := experiments.NewSweepPlan(req)
	if err != nil {
		return nil, err
	}
	active := make([]int, 0, len(plan.Points))
	if subset == nil {
		for i := range plan.Points {
			active = append(active, i)
		}
	} else {
		seen := make(map[int]bool, len(subset))
		for _, i := range subset {
			if i < 0 || i >= len(plan.Points) {
				return nil, fmt.Errorf("sweep: point %d outside [0,%d)", i, len(plan.Points))
			}
			if seen[i] {
				return nil, fmt.Errorf("sweep: point %d selected twice", i)
			}
			seen[i] = true
			active = append(active, i)
		}
	}

	jctx, cancel := context.WithCancel(ctx)
	j := &Job{
		Spec:   spec,
		plan:   plan,
		subset: subset != nil,
		active: len(active),
		ctx:    jctx,
		cancel: cancel,
	}
	j.points = make([]*pointState, len(plan.Points))
	for _, i := range active {
		cfg := plan.Points[i].Cfg
		if cfg.IntraWorkers <= 0 {
			// The engine's shard pool already occupies every core
			// (packet-range shards of all jobs run concurrently), so the
			// auto intra-packet rule — which assumes the point runs alone
			// — would oversubscribe. Decode serially unless the spec asks
			// for intra-packet workers explicitly.
			cfg.IntraWorkers = 1
		}
		pp, err := experiments.PlanPSR(cfg)
		if err != nil {
			cancel()
			return nil, fmt.Errorf("sweep: point %d: %w", i, err)
		}
		j.points[i] = &pointState{plan: pp}
		j.totalPackets += int64(pp.Packets())
	}

	// Store restore before any shard runs: any active point whose
	// content-address key is already stored — same plan fingerprint, pool
	// identity and point identity, whichever job (or process life)
	// computed it — is restored instead of executed. The pool identity is
	// part of the key: points drawn from one waveform pool never alias
	// points from another or from the pool-less path.
	st := e.cfg.Store
	var unpin func()
	if st != nil {
		j.store = st
		j.keys = PlanKeys(plan, spec.Pool, e.cfg.PoolSize, e.cfg.PoolSeed)
		// Pin the job's full key set for its lifetime: the MaxBytes GC
		// must never collect a record this job may still restore from or
		// has just written. Released when the job settles.
		unpin = st.Pin(j.keys...)
	}
	j.JobLog = NewJobLog(j.active, unpin)
	if st != nil {
		now := time.Now()
		for _, idx := range active {
			ps := j.points[idx]
			t, ok := st.Get(j.keys[idx])
			if !ok {
				store.Misses.Inc()
				continue
			}
			if t.N != ps.plan.Packets() || len(t.OK) != len(ps.plan.Receivers()) {
				// A different fidelity under the same key is impossible
				// (packets and arms feed the point identity); treat a shape
				// mismatch as a miss rather than trusting it.
				store.Misses.Inc()
				continue
			}
			store.Hits.Inc()
			st.Touch(j.keys[idx], now)
			ps.ok = t.OK
			ps.n = t.N
			ps.done = true
			j.restoredPoints++
			j.donePackets.Add(int64(t.N))
			done := int(j.donePoints.Add(1))
			j.Publish(PointEvent{Point: idx, N: t.N, OK: t.OK, DonePoints: done, Points: j.active})
		}
	}

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		cancel()
		return nil, fmt.Errorf("sweep: engine is closed")
	}
	e.nextID++
	j.ID = fmt.Sprintf("j%d", e.nextID)
	e.jobs[j.ID] = j
	e.order = append(e.order, j.ID)
	e.mu.Unlock()
	jobsSubmitted.Inc()
	jobsRunning.Add(1)

	// Decompose incomplete points into shards and count them before
	// feeding: completeShard must know each point's shard total.
	var shards []shard
	for _, i := range active {
		ps := j.points[i]
		if ps.done {
			continue
		}
		pkts := ps.plan.Packets()
		for lo := 0; lo < pkts; lo += e.cfg.ShardPackets {
			hi := lo + e.cfg.ShardPackets
			if hi > pkts {
				hi = pkts
			}
			ps.shardsLeft++
			shards = append(shards, shard{job: j, point: i, lo: lo, hi: hi})
		}
	}
	if len(shards) == 0 {
		j.finalize()
		return j, nil
	}
	go func() {
		for _, sh := range shards {
			select {
			case e.tasks <- sh:
			case <-j.ctx.Done():
				// Cancelled: account the unscheduled shards so the job
				// closes once in-flight ones drain.
				j.completeShard(sh.point, nil, 0, j.ctx.Err())
			case <-e.quit:
				return
			}
		}
	}()
	return j, nil
}

// Job returns a submitted job by id, or nil.
func (e *Engine) Job(id string) *Job {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.jobs[id]
}

// Remove cancels the job if it is still running and forgets it,
// releasing its results and plan — the pruning hook for long-running
// services, whose job table would otherwise grow monotonically. Reports
// whether the job existed. In-flight shards hold the job directly and
// drain harmlessly after removal.
func (e *Engine) Remove(id string) bool {
	e.mu.Lock()
	j, ok := e.jobs[id]
	if ok {
		delete(e.jobs, id)
		for i, oid := range e.order {
			if oid == id {
				e.order = append(e.order[:i], e.order[i+1:]...)
				break
			}
		}
	}
	e.mu.Unlock()
	if !ok {
		return false
	}
	j.Cancel() // no-op when already finished
	return true
}

// Jobs returns every submitted job in submission order.
func (e *Engine) Jobs() []*Job {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*Job, 0, len(e.order))
	for _, id := range e.order {
		out = append(out, e.jobs[id])
	}
	return out
}

// pointState accumulates one measurement point's tallies across shards.
type pointState struct {
	plan *experiments.PSRPlan

	mu         sync.Mutex
	ok         []int
	n          int
	shardsLeft int
	done       bool
}

// Job is one submitted sweep. All methods are safe for concurrent use.
// Its point stream, Wait and Done come from the embedded JobLog.
type Job struct {
	ID   string
	Spec Spec
	*JobLog

	plan   *experiments.SweepPlan
	points []*pointState
	subset bool
	active int // points this job executes (== len(points) unless SubmitPoints)
	ctx    context.Context
	cancel context.CancelFunc
	store  *store.Store
	keys   []store.Key

	totalPackets   int64
	restoredPoints int
	donePackets    atomic.Int64
	donePoints     atomic.Int32
}

// Result is a completed sweep: the rendered table plus the raw per-point,
// per-arm counts (aligned with the plan's points). Subset jobs
// (SubmitPoints) have a nil Table and nil rows for the points they did
// not run.
type Result struct {
	Table   *experiments.Table
	Points  [][]experiments.PSRPoint
	Elapsed time.Duration
}

// Progress is a snapshot of a job's execution state.
type Progress struct {
	ID             string  `json:"id"`
	Experiment     string  `json:"experiment"`
	State          string  `json:"state"` // "running", "done" or "failed"
	Points         int     `json:"points"`
	DonePoints     int     `json:"done_points"`
	RestoredPoints int     `json:"restored_points,omitempty"`
	Packets        int64   `json:"packets"`
	DonePackets    int64   `json:"done_packets"`
	ElapsedSec     float64 `json:"elapsed_sec"`
	Error          string  `json:"error,omitempty"`
}

// PointEvent is one completed measurement point as published to
// Subscribe streams (and, over SSE, to dashboards): the point's plan
// index and tallies plus the job-level completion counters at the moment
// it finished. Seq numbers a job's events 0,1,… in completion order;
// checkpoint-restored points replay first.
type PointEvent struct {
	Seq        int   `json:"seq"`
	Point      int   `json:"point"`
	N          int   `json:"n"`
	OK         []int `json:"ok"`
	DonePoints int   `json:"done_points"`
	Points     int   `json:"points"`
}

// Plan returns the job's sweep plan. Callers must treat it as read-only;
// the distributed worker uses it to fingerprint-check a lease against the
// coordinator's plan before trusting the point indexes.
func (j *Job) Plan() *experiments.SweepPlan { return j.plan }

// completeShard merges one shard's tallies (or failure) into its point.
func (j *Job) completeShard(point int, counts []int, n int, err error) {
	j.donePackets.Add(int64(n))
	if err != nil {
		j.fail(err)
		return
	}
	ps := j.points[point]
	ps.mu.Lock()
	if ps.ok == nil {
		ps.ok = make([]int, len(counts))
	}
	for i, c := range counts {
		ps.ok[i] += c
	}
	ps.n += n
	ps.shardsLeft--
	pointDone := ps.shardsLeft == 0 && !ps.done
	if pointDone {
		ps.done = true
	}
	okCopy := ps.ok
	nTotal := ps.n
	ps.mu.Unlock()
	if !pointDone {
		return
	}
	if j.store != nil {
		if err := j.store.Put(time.Now(), store.Record{Key: j.keys[point], Tally: store.Tally{N: nTotal, OK: okCopy}}); err != nil {
			j.fail(err)
			return
		}
	}
	done := int(j.donePoints.Add(1))
	pointsDone.Inc()
	j.Publish(PointEvent{
		Point: point, N: nTotal, OK: append([]int(nil), okCopy...),
		DonePoints: done, Points: j.active,
	})
	if done == j.active {
		j.finalize()
	}
}

// fail records the job's first error and cancels the rest of its work.
func (j *Job) fail(err error) { j.settle(nil, nil, err) }

// finalize assembles the result once every active point is complete.
// Subset jobs keep their per-point tallies but skip table assembly — the
// figure tables need every point of the plan.
func (j *Job) finalize() {
	results := make([][]experiments.PSRPoint, len(j.points))
	for i, ps := range j.points {
		if ps == nil {
			continue
		}
		arms := ps.plan.Receivers()
		pts := make([]experiments.PSRPoint, len(arms))
		for a, k := range arms {
			pts[a] = experiments.PSRPoint{Kind: k, OK: ps.ok[a], N: ps.n}
		}
		results[i] = pts
	}
	var table *experiments.Table
	var err error
	if !j.subset {
		table, err = j.plan.Assemble(results)
	}
	j.settle(table, results, err)
}

// settle finishes the job once: the first call updates the engine
// metrics and cancels the job's remaining shards, later calls do
// nothing.
func (j *Job) settle(table *experiments.Table, results [][]experiments.PSRPoint, err error) {
	if !j.Finish(table, results, err) {
		return
	}
	if err != nil {
		jobsFailed.Inc()
	} else {
		jobsDone.Inc()
	}
	jobsRunning.Add(-1)
	j.cancel()
}

// Cancel aborts the job; in-flight shards stop at the next packet
// boundary. Wait then returns context.Canceled.
func (j *Job) Cancel() { j.fail(context.Canceled) }

// Progress returns a snapshot of the job's execution state.
func (j *Job) Progress() Progress {
	p := Progress{
		ID:             j.ID,
		Experiment:     j.Spec.Experiment,
		Points:         j.active,
		DonePoints:     int(j.donePoints.Load()),
		RestoredPoints: j.restoredPoints,
		Packets:        j.totalPackets,
		DonePackets:    j.donePackets.Load(),
	}
	j.Outcome(&p)
	return p
}
