package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/sweep"
)

// testLogger bridges slog into the test log at debug level.
func testLogger(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(testWriter{t}, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

// testSpec is the reduced-fidelity fig8 sweep the package tests run: two
// SIRs × three MCS modes (six points), four packets each.
func testSpec() sweep.Spec {
	return sweep.Spec{Experiment: "fig8", Packets: 4, PSDUBytes: 60, Seed: 3, Axis: []float64{-10, -20}}
}

// directTable runs the spec on the direct, engine-less sequential path —
// the reference every distributed run must match byte for byte.
func directTable(t *testing.T, spec sweep.Spec) string {
	t.Helper()
	req, err := spec.Request(nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := experiments.NewSweepPlan(req)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := experiments.RunSweepPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	return tb.Render()
}

func testCoordinator(t *testing.T, cfg Config) (*Coordinator, *httptest.Server) {
	t.Helper()
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	cfg.Log = testLogger(t)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(func() { srv.Close(); c.Close() })
	return c, srv
}

func testWorker(t *testing.T, url, token string) *Worker {
	t.Helper()
	w, err := StartWorker(WorkerConfig{
		Coordinator: url,
		Token:       token,
		Engine:      sweep.Config{Workers: 2, ShardPackets: 2},
		Heartbeat:   50 * time.Millisecond,
		RetryBase:   10 * time.Millisecond,
		RetryMax:    100 * time.Millisecond,
		Log:         testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

// registerManual registers a hand-driven fake worker and returns its
// assigned id and data-plane token.
func registerManual(t *testing.T, url, secret, name string) (id, token string) {
	t.Helper()
	var resp RegisterResponse
	if status := postJSON(t, url, secret, "/v1/dist/register", RegisterRequest{Worker: name}, &resp); status != http.StatusOK {
		t.Fatalf("registering %s: HTTP %d", name, status)
	}
	return resp.Worker, resp.Token
}

// manualLease asks for work with a manual worker's token (no long-poll)
// and fails the test when none is granted.
func manualLease(t *testing.T, url, token, name string) Lease {
	t.Helper()
	var resp LeaseResponse
	if status := postJSON(t, url, token, "/v1/dist/lease", LeaseRequest{Worker: name}, &resp); status != http.StatusOK {
		t.Fatalf("%s lease request: HTTP %d", name, status)
	}
	if resp.Lease == nil {
		t.Fatalf("%s lease request: no lease granted (drain=%v)", name, resp.Drain)
	}
	return *resp.Lease
}

func waitTable(t *testing.T, j *Job) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	res, err := j.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return res.Table.Render()
}

// postJSON is the raw worker-tier client the zombie/stale tests use.
func postJSON(t *testing.T, url, token, path string, body any, out any) int {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+path, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestCoordinatorMatchesDirect pins the tentpole invariant: a coordinator
// plus 1, 2 or 4 workers produces a byte-identical table to the direct
// single-engine path for the same spec and seed, and the event stream
// carries exactly one event per point.
func TestCoordinatorMatchesDirect(t *testing.T) {
	spec := testSpec()
	want := directTable(t, spec)
	for _, workers := range []int{1, 2, 4} {
		c, srv := testCoordinator(t, Config{LeasePoints: 1})
		j, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		past, events, cancel := j.Subscribe(-1)
		defer cancel()
		if len(past) != 0 {
			t.Fatalf("%d workers: %d events before any worker joined", workers, len(past))
		}
		for i := 0; i < workers; i++ {
			testWorker(t, srv.URL, "")
		}
		got := waitTable(t, j)
		if got != want {
			t.Fatalf("%d workers: table differs from direct:\n%s\nvs\n%s", workers, got, want)
		}
		seen := make(map[int]bool)
		seq := 0
		for ev := range events {
			if ev.Seq != seq {
				t.Fatalf("%d workers: event seq %d, want %d", workers, ev.Seq, seq)
			}
			seq++
			if seen[ev.Point] {
				t.Fatalf("%d workers: point %d reported twice", workers, ev.Point)
			}
			seen[ev.Point] = true
			if ev.Points != 6 || ev.N != spec.Packets {
				t.Fatalf("%d workers: malformed event %+v", workers, ev)
			}
		}
		if len(seen) != 6 {
			t.Fatalf("%d workers: %d point events, want 6", workers, len(seen))
		}
		if p := j.Progress(); p.State != "done" || p.DonePoints != 6 || p.DonePackets != p.Packets {
			t.Fatalf("%d workers: final progress %+v", workers, p)
		}
	}
}

// TestCoordinatorMatchesEnginePooled pins the same invariant for pooled
// sweeps: distributed workers, each building its waveform pool from the
// lease's (size, seed) identity, match an in-process engine configured
// with that identity byte for byte.
func TestCoordinatorMatchesEnginePooled(t *testing.T) {
	spec := testSpec()
	spec.Pool = true

	eng := sweep.New(sweep.Config{Workers: 2, ShardPackets: 2, PoolSize: 4, PoolSeed: 9})
	defer eng.Close()
	ej, err := eng.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	eres, err := ej.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := eres.Table.Render()

	c, srv := testCoordinator(t, Config{LeasePoints: 2, PoolSize: 4, PoolSeed: 9})
	j, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	testWorker(t, srv.URL, "")
	testWorker(t, srv.URL, "")
	if got := waitTable(t, j); got != want {
		t.Fatalf("pooled distributed table differs from pooled engine:\n%s\nvs\n%s", got, want)
	}
}

// TestWorkerKilledMidSweep pins re-lease on worker death: a zombie takes
// a lease and never reports (the deterministic stand-in for kill -9), and
// a live worker killed mid-run abandons its lease; the survivors complete
// the sweep and the table still matches the direct path byte for byte.
func TestWorkerKilledMidSweep(t *testing.T) {
	spec := testSpec()
	spec.Packets = 6
	want := directTable(t, spec)

	c, srv := testCoordinator(t, Config{LeasePoints: 1, LeaseTTL: 300 * time.Millisecond})
	j, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// The zombie leases one point and goes silent: this lease MUST be
	// re-issued for the job to finish.
	_, zombieToken := registerManual(t, srv.URL, "", "zombie")
	zombieLease := manualLease(t, srv.URL, zombieToken, "zombie")

	// A real worker that is killed once it has work in flight.
	doomed := testWorker(t, srv.URL, "")
	for start := time.Now(); doomed.Leases() == 0; {
		if time.Since(start) > 30*time.Second {
			t.Fatal("doomed worker never acquired a lease")
		}
		time.Sleep(time.Millisecond)
	}
	doomed.Close()

	// The survivor finishes everything, including both orphaned leases.
	testWorker(t, srv.URL, "")
	if got := waitTable(t, j); got != want {
		t.Fatalf("table after worker death differs from direct:\n%s\nvs\n%s", got, want)
	}

	// The zombie's late heartbeat must be told its lease is gone.
	if status := postJSON(t, srv.URL, zombieToken, "/v1/dist/heartbeat", Heartbeat{Lease: zombieLease.ID, Worker: "zombie"}, nil); status != http.StatusGone {
		t.Fatalf("stale heartbeat: HTTP %d, want 410", status)
	}
}

// TestStoreReplayAfterKill pins coordinator durability: a coordinator
// that vanishes without any shutdown path (kill -9) is rebuilt from its
// store directory — the manifest recreates the job and the store index
// supplies the completed points, which are never recomputed — and still
// renders the direct table byte for byte. Crash litter (a torn trailing
// segment and a stray temp file from an interrupted atomic write) must
// be tolerated.
func TestStoreReplayAfterKill(t *testing.T) {
	spec := testSpec()
	want := directTable(t, spec)
	dir := t.TempDir()

	first, err := New(Config{LeasePoints: 1, LeaseTTL: 10 * time.Second, StoreDir: dir, Log: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(first.Handler())
	j1, err := first.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, events, cancelSub := j1.Subscribe(-1)
	w1 := testWorker(t, srv1.URL, "")
	// Let exactly two points land on disk, then "kill -9": stop the
	// worker, drop the server, and never Close the coordinator.
	for i := 0; i < 2; i++ {
		select {
		case <-events:
		case <-time.After(120 * time.Second):
			t.Fatal("timed out waiting for stored points")
		}
	}
	w1.Close()
	cancelSub()
	srv1.Close()

	// Simulate the crash landing mid-write: a segment cut off inside its
	// first record, plus the temp file an interrupted rename leaves.
	torn := append([]byte{'C', 'P', 'R', 'S', 1}, 0x40, 0xde, 0xad)
	if err := os.WriteFile(filepath.Join(dir, "seg-00999999.seg"), torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-crash.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	second, err := New(Config{LeasePoints: 1, LeaseTTL: 10 * time.Second, StoreDir: dir, Log: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(second.Handler())
	t.Cleanup(func() { srv2.Close(); second.Close() })
	j2 := second.Job(j1.ID)
	if j2 == nil {
		t.Fatalf("job %s not replayed; have %d jobs", j1.ID, len(second.Jobs()))
	}
	if p := j2.Progress(); p.RestoredPoints < 2 || p.State != "running" {
		t.Fatalf("replayed progress %+v, want ≥2 restored points and running", p)
	}
	testWorker(t, srv2.URL, "")
	if got := waitTable(t, j2); got != want {
		t.Fatalf("table after store replay differs from direct:\n%s\nvs\n%s", got, want)
	}
	// A further restart over the finished store restores the job as
	// done without any worker.
	third, err := New(Config{StoreDir: dir, Log: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer third.Close()
	j3 := third.Job(j1.ID)
	if j3 == nil {
		t.Fatal("finished job not replayed")
	}
	if p := j3.Progress(); p.State != "done" || p.RestoredPoints != 6 {
		t.Fatalf("finished replay progress %+v", p)
	}
	if got := waitTable(t, j3); got != want {
		t.Fatal("replayed finished table differs from direct")
	}
}

// TestManifestReplaySkipsUnparsable pins that a zero-byte manifest or
// foreign files in the store directory (here, old journal leftovers)
// cannot crash-loop the coordinator: an unreadable manifest is skipped
// with its job id burned, so fresh submissions never collide with it.
func TestManifestReplaySkipsUnparsable(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "j7.json"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "j3.jsonl"), []byte("not a journal\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "j5.jsonl.migrated"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{StoreDir: dir, Log: testLogger(t)})
	if err != nil {
		t.Fatalf("unparsable store files crash the coordinator: %v", err)
	}
	defer c.Close()
	if n := len(c.Jobs()); n != 0 {
		t.Fatalf("%d jobs replayed from garbage", n)
	}
	j, err := c.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != "j8" {
		t.Fatalf("fresh job id %s, want j8 (numbering past the skipped files)", j.ID)
	}
}

// TestManifestShapeReplays pins the on-disk manifest shape: manifests
// written byte for byte as earlier coordinators wrote them (literal
// JSON, pool-less and pooled) replay through New as their jobs, and a
// fresh Submit of the same spec writes the identical bytes.
func TestManifestShapeReplays(t *testing.T) {
	manifests := map[string]string{
		"j2": `{"v":1,"spec":{"experiment":"fig8","packets":4,"psdu_bytes":60,"seed":3,"axis":[-10,-20]},"points":6}`,
		"j4": `{"v":1,"spec":{"experiment":"fig8","packets":4,"psdu_bytes":60,"seed":3,"axis":[-10,-20],"pool":true},"points":6,"pool_size":4,"pool_seed":9}`,
	}
	dir := t.TempDir()
	for id, m := range manifests {
		if err := os.WriteFile(filepath.Join(dir, id+".json"), []byte(m), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c, err := New(Config{StoreDir: dir, StoreNoSync: true, PoolSize: 4, PoolSeed: 9, Log: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for id, pooled := range map[string]bool{"j2": false, "j4": true} {
		j := c.Job(id)
		if j == nil {
			t.Fatalf("manifest %s not replayed", id)
		}
		want := testSpec().Normalised()
		want.Pool = pooled
		if p := j.Progress(); p.Points != 6 || p.State != "running" || !reflect.DeepEqual(j.Spec, want) {
			t.Fatalf("replayed %s: progress %+v spec %+v", id, p, j.Spec)
		}
	}
	for _, pooled := range []bool{false, true} {
		spec := testSpec()
		spec.Pool = pooled
		j, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, j.ID+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if want := manifests[map[bool]string{false: "j2", true: "j4"}[pooled]]; string(got) != want {
			t.Errorf("fresh manifest %s:\n%s\nwant\n%s", j.ID, got, want)
		}
	}
}

// TestRepeatedSweepServedFromStore pins store-level deduplication across
// jobs: after one job completes through the fleet, resubmitting the
// identical spec — with every worker gone — completes instantly from the
// store, granting zero leases and rendering the byte-identical table.
func TestRepeatedSweepServedFromStore(t *testing.T) {
	spec := testSpec()
	want := directTable(t, spec)
	c, srv := testCoordinator(t, Config{LeasePoints: 1, StoreDir: t.TempDir(), StoreNoSync: true})
	j1, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	w := testWorker(t, srv.URL, "")
	if got := waitTable(t, j1); got != want {
		t.Fatal("fleet table differs from direct")
	}
	w.Close()
	granted := c.leasesGranted.Load()

	j2, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTable(t, j2); got != want {
		t.Fatal("store-served table differs from direct")
	}
	if p := j2.Progress(); p.State != "done" || p.RestoredPoints != 6 {
		t.Fatalf("store-served progress %+v, want done with all 6 points restored", p)
	}
	if g := c.leasesGranted.Load(); g != granted {
		t.Fatalf("repeated sweep took %d fleet leases, want 0", g-granted)
	}
}

// TestLeaseAuth pins the two-tier auth model: the join secret gates
// registration and admin calls, the minted per-worker token gates the
// data plane, and the join secret itself is NOT a data-plane credential.
func TestLeaseAuth(t *testing.T) {
	c, srv := testCoordinator(t, Config{Token: "s3cret"})
	if status := postJSON(t, srv.URL, "", "/v1/dist/register", RegisterRequest{Worker: "w"}, nil); status != http.StatusUnauthorized {
		t.Fatalf("secretless register: HTTP %d, want 401", status)
	}
	if status := postJSON(t, srv.URL, "wrong", "/v1/dist/register", RegisterRequest{Worker: "w"}, nil); status != http.StatusUnauthorized {
		t.Fatalf("wrong-secret register: HTTP %d, want 401", status)
	}
	id, token := registerManual(t, srv.URL, "s3cret", "w")
	if id == "" || !strings.HasPrefix(token, id+".") {
		t.Fatalf("registered as id=%q token=%q, want token prefixed by the id", id, token)
	}
	// The join secret must not work on the data plane, nor a token on no
	// registered worker.
	if status := postJSON(t, srv.URL, "s3cret", "/v1/dist/lease", LeaseRequest{Worker: "w"}, nil); status != http.StatusUnauthorized {
		t.Fatalf("join-secret lease request: HTTP %d, want 401", status)
	}
	if status := postJSON(t, srv.URL, "w99.deadbeef", "/v1/dist/lease", LeaseRequest{Worker: "w"}, nil); status != http.StatusUnauthorized {
		t.Fatalf("unknown-token lease request: HTTP %d, want 401", status)
	}
	if status := postJSON(t, srv.URL, token, "/v1/dist/lease", LeaseRequest{Worker: "w"}, nil); status != http.StatusNoContent {
		t.Fatalf("worker-token idle request: HTTP %d, want 204", status)
	}
	// Admin endpoints take the join secret, not worker tokens.
	if status := postJSON(t, srv.URL, token, "/v1/dist/workers/"+id+"/drain", struct{}{}, nil); status != http.StatusUnauthorized {
		t.Fatalf("worker-token admin call: HTTP %d, want 401", status)
	}
	// Revocation flips the data plane to 403 — distinct from 401 so the
	// worker knows to terminate rather than re-register.
	if !c.RevokeWorker(id) {
		t.Fatalf("revoking %s failed", id)
	}
	if status := postJSON(t, srv.URL, token, "/v1/dist/lease", LeaseRequest{Worker: "w"}, nil); status != http.StatusForbidden {
		t.Fatalf("revoked-token lease request: HTTP %d, want 403", status)
	}
}

// TestResultMergeEdgeCases pins the merge rules a flaky network exercises:
// duplicate results are idempotent, stale errors are dropped, live errors
// fail the job, and a fingerprint-mismatched result is refused.
func TestResultMergeEdgeCases(t *testing.T) {
	spec := testSpec()
	want := directTable(t, spec)

	t.Run("duplicate and stale", func(t *testing.T) {
		c, srv := testCoordinator(t, Config{LeasePoints: 1})
		j, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		// Manually work one lease and deliver its result twice.
		_, manualToken := registerManual(t, srv.URL, "", "manual")
		l := manualLease(t, srv.URL, manualToken, "manual")
		eng := sweep.New(sweep.Config{Workers: 2, ShardPackets: 2})
		defer eng.Close()
		job, err := eng.SubmitPoints(context.Background(), l.Spec, l.Points)
		if err != nil {
			t.Fatal(err)
		}
		res, err := job.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		out := LeaseResult{Lease: l.ID, Job: l.Job, Worker: "manual", Fingerprint: l.Fingerprint}
		for _, i := range l.Points {
			jp := sweep.PointTally{Point: i, N: res.Points[i][0].N}
			for _, p := range res.Points[i] {
				jp.OK = append(jp.OK, p.OK)
			}
			out.Points = append(out.Points, jp)
		}
		for i := 0; i < 2; i++ {
			if status := postJSON(t, srv.URL, manualToken, "/v1/dist/result", out, nil); status != http.StatusOK {
				t.Fatalf("result POST %d: HTTP %d", i, status)
			}
		}
		// A stale error for the now-resolved lease must not fail the job.
		stale := LeaseResult{Lease: l.ID, Job: l.Job, Worker: "manual", Fingerprint: l.Fingerprint, Error: "boom"}
		if status := postJSON(t, srv.URL, manualToken, "/v1/dist/result", stale, nil); status != http.StatusOK {
			t.Fatalf("stale error POST: HTTP %d", status)
		}
		if p := j.Progress(); p.State != "running" || p.DonePoints != len(l.Points) {
			t.Fatalf("after duplicate+stale merge: %+v", p)
		}
		testWorker(t, srv.URL, "")
		if got := waitTable(t, j); got != want {
			t.Fatal("table after duplicate/stale merges differs from direct")
		}
	})

	t.Run("live error fails job", func(t *testing.T) {
		c, srv := testCoordinator(t, Config{LeasePoints: 1})
		j, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		_, brokenToken := registerManual(t, srv.URL, "", "broken")
		l := manualLease(t, srv.URL, brokenToken, "broken")
		res := LeaseResult{Lease: l.ID, Job: l.Job, Worker: "broken", Fingerprint: l.Fingerprint, Error: "decoder exploded"}
		if status := postJSON(t, srv.URL, brokenToken, "/v1/dist/result", res, nil); status != http.StatusOK {
			t.Fatalf("error result POST: HTTP %d", status)
		}
		if _, err := j.Wait(context.Background()); err == nil || !strings.Contains(err.Error(), "decoder exploded") {
			t.Fatalf("job error = %v", err)
		}
		if p := j.Progress(); p.State != "failed" {
			t.Fatalf("state %s, want failed", p.State)
		}
	})

	t.Run("fingerprint mismatch refused", func(t *testing.T) {
		c, srv := testCoordinator(t, Config{LeasePoints: 1})
		j, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		_, skewedToken := registerManual(t, srv.URL, "", "skewed")
		l := manualLease(t, srv.URL, skewedToken, "skewed")
		res := LeaseResult{Lease: l.ID, Job: l.Job, Worker: "skewed", Fingerprint: "deadbeef",
			Points: []sweep.PointTally{{Point: l.Points[0], N: spec.Packets, OK: []int{0, 0}}}}
		if status := postJSON(t, srv.URL, skewedToken, "/v1/dist/result", res, nil); status != http.StatusConflict {
			t.Fatalf("skewed result POST: HTTP %d, want 409", status)
		}
		if p := j.Progress(); p.State != "running" || p.DonePoints != 0 {
			t.Fatalf("after refused result: %+v", p)
		}
		// The refused lease's points must be re-issuable.
		testWorker(t, srv.URL, "")
		if got := waitTable(t, j); got != want {
			t.Fatal("table after refused result differs from direct")
		}
	})
}
