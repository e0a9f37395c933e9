// Package history is the results-history index over the content-addressed
// result store (internal/sweep/store): a small, persistent, incrementally
// maintained record of which sweeps ran — experiment id, plan fingerprint,
// normalised spec, pool identity, run times — that powers the read-only
// GET /v1/history/* query surface (see Handler).
//
// The index is deliberately separate from the store. The store holds
// per-point tallies keyed by content address and answers "is this exact
// point done?"; it has no notion of a sweep. The history index holds one
// entry per distinct plan fingerprint ever submitted and remembers enough
// of the spec to rebuild that plan later, so stored sweeps can be listed,
// re-assembled into their tables (Table) and compared point-by-point
// (Diff) without re-running a packet and without scanning segment
// payloads: plans are rebuilt from specs (planning draws no waveforms),
// keys are recomputed, and tallies come from the store's in-memory index.
//
// Persistence is a JSON-lines sidecar, history.jsonl, in the store
// directory: one line per recorded run, appended (and fsynced unless
// Options.NoSync) at submission. Reopening replays the lines; unparsable
// lines — a torn tail from a crash mid-append, a foreign file — are
// skipped, never fatal, mirroring the store's salvage discipline. Like
// the store, the index never reads the wall clock: callers pass run
// times into Record.
package history

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/sweep"
	"repro/internal/sweep/store"
	"repro/internal/wifi"
)

// indexFile is the sidecar's name inside the store directory.
const indexFile = "history.jsonl"

// Sweep is one distinct sweep plan the index has seen: the aggregate of
// every run that fingerprinted identically.
type Sweep struct {
	Experiment  string     `json:"experiment"`
	Fingerprint string     `json:"fingerprint"`
	Spec        sweep.Spec `json:"spec"`
	// Points is the plan's measurement-point count.
	Points int `json:"points"`
	// PoolSize/PoolSeed are the waveform-pool identity the runs keyed
	// their stored tallies under (zero for pool-less sweeps).
	PoolSize int   `json:"pool_size,omitempty"`
	PoolSeed int64 `json:"pool_seed,omitempty"`
	// Runs counts recorded submissions of this exact plan.
	Runs int `json:"runs"`
	// FirstRunUnix/LastRunUnix bracket those submissions (caller clock,
	// Unix seconds).
	FirstRunUnix int64 `json:"first_run_unix"`
	LastRunUnix  int64 `json:"last_run_unix"`
}

// ExperimentSummary aggregates every sweep of one experiment id.
type ExperimentSummary struct {
	Experiment string `json:"experiment"`
	// Sweeps counts distinct plan fingerprints seen for the experiment.
	Sweeps int `json:"sweeps"`
	// Runs sums recorded submissions across those sweeps.
	Runs int `json:"runs"`
	// LatestFingerprint is the fingerprint of the most recently run sweep.
	LatestFingerprint string `json:"latest_fingerprint"`
	LastRunUnix       int64  `json:"last_run_unix"`
}

// Options configures Open.
type Options struct {
	// NoSync skips fsync on appends (tests).
	NoSync bool
}

// runLine is the JSONL wire form of one recorded run.
type runLine struct {
	V           int        `json:"v"`
	Fingerprint string     `json:"fp"`
	Spec        sweep.Spec `json:"spec"`
	Points      int        `json:"points"`
	PoolSize    int        `json:"pool_size,omitempty"`
	PoolSeed    int64      `json:"pool_seed,omitempty"`
	Unix        int64      `json:"unix"`
}

// planInfo caches one fingerprint's rebuilt plan and derived identities.
type planInfo struct {
	plan *experiments.SweepPlan
	keys []store.Key
	ids  []string
}

// Index is the in-memory history, mirrored to history.jsonl.
type Index struct {
	mu     sync.Mutex
	path   string
	noSync bool
	sweeps map[string]*Sweep    // by fingerprint
	plans  map[string]*planInfo // lazy rebuilt-plan cache, by fingerprint
}

// Open loads (creating if absent) the history index sidecar in dir —
// normally the store directory, so index and store travel together.
// Unparsable lines are counted in skipped and otherwise ignored.
func Open(dir string, opts Options) (*Index, int, error) {
	ix := &Index{
		path:   filepath.Join(dir, indexFile),
		noSync: opts.NoSync,
		sweeps: make(map[string]*Sweep),
		plans:  make(map[string]*planInfo),
	}
	f, err := os.Open(ix.path)
	if errors.Is(err, os.ErrNotExist) {
		return ix, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("history: %w", err)
	}
	defer f.Close()
	skipped := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var l runLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil || l.V != 1 || l.Fingerprint == "" {
			skipped++ // torn tail or foreign line: salvage the rest
			continue
		}
		ix.absorb(l)
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("history: reading %s: %w", ix.path, err)
	}
	return ix, skipped, nil
}

// absorb folds one run line into the in-memory aggregate.
func (ix *Index) absorb(l runLine) {
	s := ix.sweeps[l.Fingerprint]
	if s == nil {
		s = &Sweep{
			Experiment:   l.Spec.Experiment,
			Fingerprint:  l.Fingerprint,
			Spec:         l.Spec,
			Points:       l.Points,
			PoolSize:     l.PoolSize,
			PoolSeed:     l.PoolSeed,
			FirstRunUnix: l.Unix,
			LastRunUnix:  l.Unix,
		}
		ix.sweeps[l.Fingerprint] = s
	}
	s.Runs++
	if l.Unix < s.FirstRunUnix {
		s.FirstRunUnix = l.Unix
	}
	if l.Unix >= s.LastRunUnix {
		// A fingerprint hashes point identities, which exclude the pool,
		// so pooled and pool-less runs of one spec share it while keying
		// their stored tallies apart. The index keeps one entry per
		// fingerprint; the latest run's spec and pool identity win, and
		// Table/Diff address that variant's records.
		s.LastRunUnix = l.Unix
		s.Spec = l.Spec
		s.PoolSize, s.PoolSeed = l.PoolSize, l.PoolSeed
	}
}

// Record notes one submission of spec at the caller-supplied time (the
// index, like the store, never reads the wall clock itself). The plan is
// rebuilt to derive its fingerprint — planning draws no waveforms, so
// this costs string formatting, not IFFTs. poolSize/poolSeed are the
// engine's resolved pool identity; they are canonicalised to zero for
// pool-less specs exactly as store.KeyFor does. Returns the fingerprint.
func (ix *Index) Record(spec sweep.Spec, poolSize int, poolSeed int64, now time.Time) (string, error) {
	spec = spec.Normalised()
	if !spec.Pool {
		poolSize, poolSeed = 0, 0
	}
	pi, err := buildPlan(spec, poolSize, poolSeed)
	if err != nil {
		return "", err
	}
	fp := pi.plan.Fingerprint()
	l := runLine{
		V:           1,
		Fingerprint: fp,
		Spec:        spec,
		Points:      len(pi.plan.Points),
		PoolSize:    poolSize,
		PoolSeed:    poolSeed,
		Unix:        now.Unix(),
	}
	line, err := json.Marshal(l)
	if err != nil {
		return "", err
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	f, err := os.OpenFile(ix.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return "", fmt.Errorf("history: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return "", fmt.Errorf("history: %w", err)
	}
	if !ix.noSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return "", fmt.Errorf("history: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("history: %w", err)
	}
	ix.absorb(l)
	ix.plans[fp] = pi
	RunsRecorded.Inc()
	return fp, nil
}

// Filter narrows Sweeps listings. Zero values match everything.
type Filter struct {
	Experiment  string
	Fingerprint string
	// Since/Until bound LastRunUnix inclusively; zero means unbounded.
	Since int64
	Until int64
}

// Sweeps lists the recorded sweeps matching f, most recently run first
// (ties broken by fingerprint for a stable order).
func (ix *Index) Sweeps(f Filter) []Sweep {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	out := make([]Sweep, 0, len(ix.sweeps))
	for _, s := range ix.sweeps {
		if f.Experiment != "" && s.Experiment != f.Experiment {
			continue
		}
		if f.Fingerprint != "" && s.Fingerprint != f.Fingerprint {
			continue
		}
		if f.Since != 0 && s.LastRunUnix < f.Since {
			continue
		}
		if f.Until != 0 && s.LastRunUnix > f.Until {
			continue
		}
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].LastRunUnix != out[j].LastRunUnix {
			return out[i].LastRunUnix > out[j].LastRunUnix
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out
}

// Experiments summarises the index per experiment id, sorted by id.
func (ix *Index) Experiments() []ExperimentSummary {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	byExp := make(map[string]*ExperimentSummary)
	for _, s := range ix.sweeps {
		e := byExp[s.Experiment]
		if e == nil {
			e = &ExperimentSummary{Experiment: s.Experiment}
			byExp[s.Experiment] = e
		}
		e.Sweeps++
		e.Runs += s.Runs
		if s.LastRunUnix > e.LastRunUnix || e.LatestFingerprint == "" {
			e.LastRunUnix = s.LastRunUnix
			e.LatestFingerprint = s.Fingerprint
		}
	}
	out := make([]ExperimentSummary, 0, len(byExp))
	for _, e := range byExp {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Experiment < out[j].Experiment })
	return out
}

// ErrUnknownFingerprint reports a fingerprint the index has never seen.
var ErrUnknownFingerprint = errors.New("history: unknown sweep fingerprint")

// ErrStalePlan reports that rebuilding a recorded spec no longer yields
// the recorded fingerprint — the binary plans differently than the one
// that ran the sweep (version skew), so its stored points cannot be
// addressed. The same guard the distributed tier applies to leases.
var ErrStalePlan = errors.New("history: recorded spec no longer plans to its recorded fingerprint (version skew)")

// MissingPointsError reports stored-sweep reassembly that found gaps:
// points of the plan the store does not (or no longer) hold(s) — never
// written, or evicted by the store's GC.
type MissingPointsError struct {
	Fingerprint string
	Indices     []int // plan point indices, ascending
	Total       int   // plan point count
}

func (e *MissingPointsError) Error() string {
	return fmt.Sprintf("history: sweep %s: %d of %d points not in store (indices %v)",
		e.Fingerprint, len(e.Indices), e.Total, e.Indices)
}

// buildPlan rebuilds spec's plan with a never-encoded placeholder pool
// (planning draws no waveforms; pool entries encode lazily) and derives
// its content-address keys and point identities.
func buildPlan(spec sweep.Spec, poolSize int, poolSeed int64) (*planInfo, error) {
	var pool *wifi.WaveformPool
	if spec.Pool {
		pool = wifi.NewWaveformPool(poolSize, poolSeed)
	}
	req, err := spec.Request(pool)
	if err != nil {
		return nil, err
	}
	plan, err := experiments.NewSweepPlan(req)
	if err != nil {
		return nil, err
	}
	pi := &planInfo{
		plan: plan,
		keys: sweep.PlanKeys(plan, spec.Pool, poolSize, poolSeed),
		ids:  make([]string, len(plan.Points)),
	}
	for i := range plan.Points {
		pi.ids[i] = plan.PointIdentity(i)
	}
	return pi, nil
}

// planFor returns the (cached) rebuilt plan for a recorded fingerprint,
// verifying the rebuild still fingerprints identically.
func (ix *Index) planFor(fp string) (*planInfo, error) {
	ix.mu.Lock()
	if pi, ok := ix.plans[fp]; ok {
		ix.mu.Unlock()
		return pi, nil
	}
	s, ok := ix.sweeps[fp]
	if !ok {
		ix.mu.Unlock()
		return nil, ErrUnknownFingerprint
	}
	spec, size, seed := s.Spec, s.PoolSize, s.PoolSeed
	ix.mu.Unlock()

	pi, err := buildPlan(spec, size, seed)
	if err != nil {
		return nil, err
	}
	if got := pi.plan.Fingerprint(); got != fp {
		return nil, fmt.Errorf("%w: recorded %s, rebuilt %s", ErrStalePlan, fp, got)
	}
	ix.mu.Lock()
	ix.plans[fp] = pi
	ix.mu.Unlock()
	return pi, nil
}

// Table reassembles the recorded sweep fp into its standard table from
// stored tallies alone — no packets run, no segment payloads read (the
// store answers from its in-memory index). Returns ErrUnknownFingerprint
// for fingerprints never recorded and a *MissingPointsError naming the
// exact gaps when the store holds only part of the sweep.
func (ix *Index) Table(fp string, st *store.Store) (*experiments.Table, error) {
	pi, err := ix.planFor(fp)
	if err != nil {
		return nil, err
	}
	results := make([][]experiments.PSRPoint, len(pi.plan.Points))
	var missing []int
	for i, key := range pi.keys {
		tl, ok := st.Get(key)
		if !ok {
			missing = append(missing, i)
			continue
		}
		cfg := pi.plan.Points[i].Cfg
		if tl.N != cfg.Packets || len(tl.OK) != len(cfg.Receivers) {
			// A key collision cannot do this; a mispatched store can.
			return nil, fmt.Errorf("history: sweep %s point %d: stored tally shape %d/%d arms, plan wants %d/%d",
				fp, i, tl.N, len(tl.OK), cfg.Packets, len(cfg.Receivers))
		}
		pts := make([]experiments.PSRPoint, len(cfg.Receivers))
		for a, kind := range cfg.Receivers {
			pts[a] = experiments.PSRPoint{Kind: kind, OK: tl.OK[a], N: tl.N}
		}
		results[i] = pts
	}
	if missing != nil {
		return nil, &MissingPointsError{Fingerprint: fp, Indices: missing, Total: len(pi.keys)}
	}
	TableBuilds.Inc()
	return pi.plan.Assemble(results)
}

// ArmDelta is one receiver arm's tally difference at a shared point.
type ArmDelta struct {
	Arm string `json:"arm"`
	OKA int    `json:"ok_a"`
	OKB int    `json:"ok_b"`
	// Delta is OKB-OKA.
	Delta int `json:"delta"`
}

// DiffPoint is one shared measurement point whose stored tallies differ.
type DiffPoint struct {
	Identity string     `json:"identity"`
	IndexA   int        `json:"index_a"`
	IndexB   int        `json:"index_b"`
	NA       int        `json:"n_a"`
	NB       int        `json:"n_b"`
	Arms     []ArmDelta `json:"arms,omitempty"`
}

// Diff compares two recorded sweeps point-by-point from the store.
type Diff struct {
	A string `json:"a"`
	B string `json:"b"`
	// Shared counts points present in both plans (matched by identity).
	Shared int `json:"shared"`
	// OnlyA/OnlyB list point identities exclusive to one plan — the
	// explicit report of mismatched point sets.
	OnlyA []string `json:"only_a,omitempty"`
	OnlyB []string `json:"only_b,omitempty"`
	// MissingA/MissingB list shared identities whose tally the store
	// lacks on that side (never stored, or evicted).
	MissingA []string `json:"missing_a,omitempty"`
	MissingB []string `json:"missing_b,omitempty"`
	// Points lists the shared, both-stored points whose tallies differ.
	Points []DiffPoint `json:"points,omitempty"`
	// Equal: identical point sets, every point stored on both sides,
	// zero tally deltas.
	Equal bool `json:"equal"`
}

// CompareSweeps diffs the stored tallies of two recorded sweeps. Points
// are matched across the plans by identity, so sweeps over different
// axes/arms report their exclusive points in OnlyA/OnlyB rather than
// failing. Like Table, it reads only in-memory indexes.
func (ix *Index) CompareSweeps(a, b string, st *store.Store) (*Diff, error) {
	pa, err := ix.planFor(a)
	if err != nil {
		return nil, fmt.Errorf("sweep a: %w", err)
	}
	pb, err := ix.planFor(b)
	if err != nil {
		return nil, fmt.Errorf("sweep b: %w", err)
	}
	ixB := make(map[string]int, len(pb.ids))
	for j, id := range pb.ids {
		ixB[id] = j
	}
	d := &Diff{A: a, B: b}
	seenB := make(map[int]bool, len(pb.ids))
	for i, id := range pa.ids {
		j, ok := ixB[id]
		if !ok {
			d.OnlyA = append(d.OnlyA, id)
			continue
		}
		seenB[j] = true
		d.Shared++
		ta, okA := st.Get(pa.keys[i])
		tb, okB := st.Get(pb.keys[j])
		if !okA {
			d.MissingA = append(d.MissingA, id)
		}
		if !okB {
			d.MissingB = append(d.MissingB, id)
		}
		if !okA || !okB {
			continue
		}
		dp := DiffPoint{Identity: id, IndexA: i, IndexB: j, NA: ta.N, NB: tb.N}
		arms := pa.plan.Points[i].Cfg.Receivers
		differ := ta.N != tb.N || len(ta.OK) != len(tb.OK)
		for x := 0; x < len(ta.OK) && x < len(tb.OK); x++ {
			if ta.OK[x] != tb.OK[x] {
				differ = true
			}
			name := fmt.Sprintf("arm%d", x)
			if x < len(arms) {
				name = arms[x].String()
			}
			if ta.OK[x] != tb.OK[x] {
				dp.Arms = append(dp.Arms, ArmDelta{Arm: name, OKA: ta.OK[x], OKB: tb.OK[x], Delta: tb.OK[x] - ta.OK[x]})
			}
		}
		if differ {
			d.Points = append(d.Points, dp)
		}
	}
	for j, id := range pb.ids {
		if !seenB[j] {
			d.OnlyB = append(d.OnlyB, id)
		}
	}
	d.Equal = len(d.OnlyA) == 0 && len(d.OnlyB) == 0 &&
		len(d.MissingA) == 0 && len(d.MissingB) == 0 && len(d.Points) == 0
	Diffs.Inc()
	return d, nil
}
