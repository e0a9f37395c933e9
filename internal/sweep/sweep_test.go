package sweep

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sweep/store"
)

// testSpec is a reduced-fidelity fig8 sweep: two SIRs × three MCS modes,
// five packets each — small enough for CI, sharded enough (ShardPackets 2)
// to exercise the merge paths.
func testSpec() Spec {
	return Spec{Experiment: "fig8", Packets: 5, PSDUBytes: 60, Seed: 3, Axis: []float64{-10, -20}}
}

func testEngine() *Engine {
	return New(Config{Workers: 4, ShardPackets: 2, PoolSize: 4})
}

// testStore opens a NoSync store in a fresh temp dir.
func testStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, _, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// testEngineStore is testEngine checkpointing through a store at dir.
func testEngineStore(t *testing.T, dir string) *Engine {
	t.Helper()
	return New(Config{Workers: 4, ShardPackets: 2, PoolSize: 4, Store: testStore(t, dir)})
}

// runDirect executes the same sweep on the sequential engine-less path.
func runDirect(t *testing.T, e *Engine, spec Spec) (*experiments.Table, [][]experiments.PSRPoint) {
	t.Helper()
	req, err := spec.Request(e.Pool())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := experiments.NewSweepPlan(req)
	if err != nil {
		t.Fatal(err)
	}
	results := make([][]experiments.PSRPoint, len(plan.Points))
	for i := range plan.Points {
		if results[i], err = experiments.RunPSR(plan.Points[i].Cfg); err != nil {
			t.Fatal(err)
		}
	}
	tb, err := plan.Assemble(results)
	if err != nil {
		t.Fatal(err)
	}
	return tb, results
}

func submitAndWait(t *testing.T, e *Engine, spec Spec) *Result {
	t.Helper()
	j, err := e.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func checkSameResults(t *testing.T, want, got [][]experiments.PSRPoint) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("point count %d vs %d", len(got), len(want))
	}
	for i := range want {
		for a := range want[i] {
			if want[i][a] != got[i][a] {
				t.Fatalf("point %d arm %d: engine %+v, direct %+v", i, a, got[i][a], want[i][a])
			}
		}
	}
}

// TestEngineMatchesDirect pins the engine's core guarantee: sharded
// execution produces bit-identical per-point counts and an identical
// rendered table to the direct sequential path, with and without the
// shared waveform pool.
func TestEngineMatchesDirect(t *testing.T) {
	e := testEngine()
	defer e.Close()
	for _, pool := range []bool{false, true} {
		spec := testSpec()
		spec.Pool = pool
		wantTable, wantResults := runDirect(t, e, spec)
		res := submitAndWait(t, e, spec)
		checkSameResults(t, wantResults, res.Points)
		if res.Table.Render() != wantTable.Render() {
			t.Errorf("pool=%v: rendered tables differ:\n%s\nvs\n%s", pool, res.Table.Render(), wantTable.Render())
		}
	}
}

// TestEnginePoolDeterministic pins that pooled sweeps are reproducible:
// two engines (fresh pools) at the same seed produce identical tables.
func TestEnginePoolDeterministic(t *testing.T) {
	spec := testSpec()
	spec.Axis = []float64{-15}
	spec.Pool = true
	var renders []string
	for i := 0; i < 2; i++ {
		e := testEngine()
		res := submitAndWait(t, e, spec)
		renders = append(renders, res.Table.Render())
		e.Close()
	}
	if renders[0] != renders[1] {
		t.Fatalf("pooled sweep not deterministic:\n%s\nvs\n%s", renders[0], renders[1])
	}
}

// TestStoreResume pins the store round trip: a completed job writes one
// record per point; deleting some segments and truncating another to a
// torn prefix, then resubmitting on a fresh engine over the same dir,
// restores exactly the surviving points and still produces bit-identical
// results; resubmitting against the intact store executes zero packets.
func TestStoreResume(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()

	e := testEngineStore(t, dir)
	full := submitAndWait(t, e, spec)
	e.Close()
	nPoints := len(full.Points)
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != nPoints {
		t.Fatalf("store has %d segments, want one per point (%d)", len(segs), nPoints)
	}

	// A complete store resumes without executing any packet.
	e2 := testEngineStore(t, dir)
	j2, err := e2.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := j2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	p := j2.Progress()
	if p.RestoredPoints != nPoints || p.DonePackets != p.Packets || p.State != "done" {
		t.Fatalf("full resume progress = %+v", p)
	}
	checkSameResults(t, full.Points, res2.Points)
	e2.Close()

	// Simulate crash damage: delete two whole segments and tear a third
	// mid-record. The damaged points recompute; the rest restore.
	sort.Strings(segs)
	for _, s := range segs[:2] {
		if err := os.Remove(s); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(segs[2])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[2], data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	e3 := testEngineStore(t, dir)
	defer e3.Close()
	j3, err := e3.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res3, err := j3.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if p := j3.Progress(); p.RestoredPoints != nPoints-3 {
		t.Fatalf("restored %d points, want %d", p.RestoredPoints, nPoints-3)
	}
	checkSameResults(t, full.Points, res3.Points)
}

// TestStoreContentAddressing pins that the store never aliases across
// sweeps: a different seed, and a pooled sweep under a different pool
// identity, hit nothing (content-address miss) instead of being merged
// or refused — the store is a cache, not a per-job file.
func TestStoreContentAddressing(t *testing.T) {
	dir := t.TempDir()
	e := testEngineStore(t, dir)
	defer e.Close()
	spec := testSpec()
	submitAndWait(t, e, spec)

	other := spec
	other.Seed++
	j, err := e.Submit(context.Background(), other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if p := j.Progress(); p.RestoredPoints != 0 {
		t.Fatalf("different seed restored %d points from the store", p.RestoredPoints)
	}

	// Pooled tallies key under the pool's identity: an engine with a
	// different pool seed must miss (its waveforms differ), while the
	// same identity restores in full.
	pooled := testSpec()
	pooled.Pool = true
	pj, err := e.Submit(context.Background(), pooled)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := pj.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	e2 := New(Config{Workers: 2, ShardPackets: 2, PoolSize: 4, PoolSeed: 99, Store: testStore(t, dir)})
	defer e2.Close()
	j2, err := e2.Submit(context.Background(), pooled)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if p := j2.Progress(); p.RestoredPoints != 0 {
		t.Fatalf("differently-seeded pool restored %d points", p.RestoredPoints)
	}
	e3 := New(Config{Workers: 2, ShardPackets: 2, PoolSize: 4, Store: testStore(t, dir)})
	defer e3.Close()
	j3, err := e3.Submit(context.Background(), pooled)
	if err != nil {
		t.Fatal(err)
	}
	res3, err := j3.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if p := j3.Progress(); p.RestoredPoints != len(pres.Points) {
		t.Fatalf("same pool identity restored %d of %d points", p.RestoredPoints, len(pres.Points))
	}
	checkSameResults(t, pres.Points, res3.Points)
}

// TestRemove pins job pruning: removed jobs disappear from the engine's
// table (running ones are cancelled first).
func TestRemove(t *testing.T) {
	e := testEngine()
	defer e.Close()
	j, err := e.Submit(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !e.Remove(j.ID) {
		t.Fatal("Remove reported missing job")
	}
	if e.Job(j.ID) != nil || len(e.Jobs()) != 0 {
		t.Fatal("job still listed after Remove")
	}
	if e.Remove(j.ID) {
		t.Fatal("second Remove reported success")
	}
	// Ids are never reused: the next job is numbered past the removed one.
	j2, err := e.Submit(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	j2.Cancel()
	if j2.ID != "j2" {
		t.Fatalf("job after Remove got id %s, want j2", j2.ID)
	}
}

// TestCancel pins cooperative cancellation: a cancelled job unblocks
// waiters with context.Canceled and reports the failed state.
func TestCancel(t *testing.T) {
	e := New(Config{Workers: 2, ShardPackets: 1})
	defer e.Close()
	spec := testSpec()
	spec.Packets = 500 // long enough that cancellation lands mid-flight
	j, err := e.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	j.Cancel()
	if _, err := j.Wait(context.Background()); err != context.Canceled {
		t.Fatalf("Wait after cancel = %v", err)
	}
	if p := j.Progress(); p.State != "failed" {
		t.Fatalf("state = %s", p.State)
	}
}

// TestSpecValidation pins the submission-time failure paths.
func TestSpecValidation(t *testing.T) {
	e := testEngine()
	defer e.Close()
	if _, err := e.Submit(context.Background(), Spec{Experiment: "fig6a"}); err == nil {
		t.Fatal("non-sweep experiment accepted")
	}
	if _, err := e.Submit(context.Background(), Spec{Experiment: "fig8", Receivers: []string{"bogus"}}); err == nil {
		t.Fatal("unknown receiver accepted")
	}
	if _, err := e.Submit(context.Background(), Spec{Experiment: "fig8", MCS: []string{"FM radio"}}); err == nil {
		t.Fatal("unknown MCS accepted")
	}
}
