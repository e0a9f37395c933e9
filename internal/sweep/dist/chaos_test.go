package dist

// Chaos harness: transport fault injection, worker kill/restart, drain
// and revocation layered onto one sweep, pinning the tier's load-bearing
// promise — the merged table stays byte-identical to a single in-process
// engine no matter what the fleet does.

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/sweep"
	"repro/internal/sweep/store"
)

// chaosEngine is the small local engine config every chaos worker runs.
func chaosEngine() sweep.Config { return sweep.Config{Workers: 2, ShardPackets: 2} }

// chaosTransport wraps a RoundTripper with deterministic fault
// injection: every failNth request errors before it is sent (a
// connection that never happened), and every dropNth response errors
// AFTER the coordinator processed the request (a response lost on the
// wire) — the nastier fault, because the worker must retry a call whose
// effect already landed, exercising idempotent merge.
type chaosTransport struct {
	base    http.RoundTripper
	failNth int
	dropNth int

	mu    sync.Mutex
	calls int
}

func (c *chaosTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.mu.Lock()
	c.calls++
	n := c.calls
	c.mu.Unlock()
	if c.failNth > 0 && n%c.failNth == 0 {
		return nil, fmt.Errorf("chaos: injected pre-send failure (call %d)", n)
	}
	resp, err := c.base.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	if c.dropNth > 0 && n%c.dropNth == 0 {
		resp.Body.Close()
		return nil, fmt.Errorf("chaos: response dropped after processing (call %d)", n)
	}
	return resp, nil
}

func (c *chaosTransport) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

// chaosWorker starts a worker whose every coordinator call rides the
// chaos transport.
func chaosWorker(t *testing.T, url string, tr *chaosTransport) *Worker {
	t.Helper()
	w, err := StartWorker(WorkerConfig{
		Coordinator: url,
		Engine:      chaosEngine(),
		Heartbeat:   50 * time.Millisecond,
		RetryBase:   5 * time.Millisecond,
		RetryMax:    50 * time.Millisecond,
		HTTPClient:  &http.Client{Transport: tr},
		Log:         testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

// registeredID waits for w's asynchronous registration and returns its
// worker id: a revoke or drain aimed at a worker that has not registered
// yet would name nobody, and the worker would never be told to exit.
func registeredID(t *testing.T, w *Worker) string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if id := w.WorkerID(); id != "" {
			return id
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never registered")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChaosByteIdentical is the acceptance pin for the hardened tier:
// with injected transport faults (pre-send failures AND post-processing
// response drops), a mid-sweep worker kill, a graceful drain, a
// revocation and a replacement worker joining late, the merged table is
// byte-identical to the direct single-engine run.
func TestChaosByteIdentical(t *testing.T) {
	spec := testSpec()
	spec.Packets = 24 // enough work that the chaos overlaps live leases
	want := directTable(t, spec)
	dir := t.TempDir()

	// Adaptive lease sizing (LeasePoints 0) with a short TTL so the
	// killed worker's lease re-issues quickly; everything lands in a
	// store so the recovery leg below can damage and replay it.
	c, srv := testCoordinator(t, Config{LeaseTTL: 500 * time.Millisecond, StoreDir: dir, StoreNoSync: true})
	j, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, points, cancelSub := j.Subscribe(-1)
	defer cancelSub()
	waitPoint := func(what string) {
		t.Helper()
		select {
		case _, ok := <-points:
			if !ok {
				return // job already finished: chaos just hits idle workers
			}
		case <-time.After(120 * time.Second):
			t.Fatalf("timed out waiting for a point before %s", what)
		}
	}

	victim := chaosWorker(t, srv.URL, &chaosTransport{base: http.DefaultTransport, failNth: 9})
	flaky := chaosWorker(t, srv.URL, &chaosTransport{base: http.DefaultTransport, failNth: 7, dropNth: 11})

	// Kill the victim once work is flowing — no drain, no deregister: its
	// live lease must come back via TTL expiry.
	waitPoint("the kill")
	victimID := victim.WorkerID()
	victim.Close()

	// Revoke a mid-sweep worker the hard way and bring in a clean
	// replacement.
	waitPoint("the revocation")
	replacement := chaosWorker(t, srv.URL, &chaosTransport{base: http.DefaultTransport, failNth: 8, dropNth: 13})
	c.RevokeWorker(registeredID(t, flaky))

	// Drain the replacement near the end: its in-flight lease must land
	// and the job must still finish (the drained worker may be the last
	// one; draining only blocks NEW leases after the current one).
	waitPoint("the drain")
	chaosWorker(t, srv.URL, &chaosTransport{base: http.DefaultTransport, failNth: 10})
	c.DrainWorker(registeredID(t, replacement))

	if got := waitTable(t, j); got != want {
		t.Fatalf("chaos table differs from direct:\n%s\nvs\n%s", got, want)
	}

	// The revoked worker must terminate on its own (403), the drained one
	// must deregister; the killed one's registry entry is tombstoned with
	// zero live leases once its lease expired.
	for name, done := range map[string]<-chan struct{}{"revoked": flaky.Done(), "drained": replacement.Done()} {
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s worker never exited", name)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		stale := false
		for _, wi := range c.WorkerInfos() {
			if wi.ID == victimID && wi.Leases > 0 {
				stale = true
			}
			if wi.State == workerDraining {
				stale = true // drained worker should have deregistered
			}
		}
		if !stale {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("registry never settled: %+v", c.WorkerInfos())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Crash-recovery leg: bit-flip one stored segment and tear another
	// mid-record (what kill -9 under write pressure leaves behind), then
	// rebuild a coordinator over the damaged store and resubmit. The
	// salvaged points restore, the damaged ones recompute on a fresh
	// worker, and the table is STILL byte-identical — corruption can cost
	// work, never correctness.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("store segments after chaos run: %v (err %v)", segs, err)
	}
	sort.Strings(segs)
	flip, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	flip[len(flip)/2] ^= 0x20
	if err := os.WriteFile(segs[0], flip, 0o644); err != nil {
		t.Fatal(err)
	}
	torn, err := os.ReadFile(segs[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[1], torn[:len(torn)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	c2, srv2 := testCoordinator(t, Config{StoreDir: dir, StoreNoSync: true})
	j2, err := c2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Before any worker joins, exactly the salvaged records restore: each
	// point lives in its own segment, so the two damaged ones recompute.
	if p := j2.Progress(); p.RestoredPoints != 4 {
		t.Fatalf("recovery restored %d points at submit, want 4 (6 minus the two damaged segments)", p.RestoredPoints)
	}
	testWorker(t, srv2.URL, "")
	if got := waitTable(t, j2); got != want {
		t.Fatalf("table after store corruption differs from direct:\n%s\nvs\n%s", got, want)
	}
}

// TestLateResultAcceptedOnce pins the slow-worker protocol end to end: a
// worker whose lease TTL'd out and was re-issued elsewhere delivers its
// result late; the coordinator accepts it (first completion wins —
// exactly once), cancels the now-redundant re-run in flight (the
// replacement's next heartbeat gets 410), and counts the replacement's
// own eventual result as a dedupe, not a second merge.
func TestLateResultAcceptedOnce(t *testing.T) {
	spec := testSpec()
	want := directTable(t, spec)
	lateBefore := store.LateAccepts.Value()
	dupBefore := store.Dedupes.Value()

	c, srv := testCoordinator(t, Config{LeasePoints: 1, LeaseTTL: 250 * time.Millisecond,
		StoreDir: t.TempDir(), StoreNoSync: true})
	j, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// The slow worker takes one point and computes it correctly — but
	// will only report after its lease has been re-issued.
	_, slowTok := registerManual(t, srv.URL, "", "slow")
	l1 := manualLease(t, srv.URL, slowTok, "slow")
	eng := sweep.New(chaosEngine())
	defer eng.Close()
	job, err := eng.SubmitPoints(context.Background(), l1.Spec, l1.Points)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	late := LeaseResult{Lease: l1.ID, Job: l1.Job, Worker: "slow", Fingerprint: l1.Fingerprint}
	for _, i := range l1.Points {
		jp := sweep.PointTally{Point: i, N: res.Points[i][0].N}
		for _, p := range res.Points[i] {
			jp.OK = append(jp.OK, p.OK)
		}
		late.Points = append(late.Points, jp)
	}

	// Let the lease TTL out, then re-issue the same point to a second
	// worker — the redundant re-run.
	time.Sleep(400 * time.Millisecond)
	_, fastTok := registerManual(t, srv.URL, "", "fast")
	l2 := manualLease(t, srv.URL, fastTok, "fast")
	if len(l2.Points) != 1 || l2.Points[0] != l1.Points[0] {
		t.Fatalf("re-issued lease covers %v, want the expired lease's %v", l2.Points, l1.Points)
	}

	// The late result lands: accepted exactly once, and the in-flight
	// redundant lease is cancelled rather than left to burn fleet time.
	if status := postJSON(t, srv.URL, slowTok, "/v1/dist/result", late, nil); status != http.StatusOK {
		t.Fatalf("late result: HTTP %d", status)
	}
	if c.jobForLease(l2.ID) != nil {
		t.Fatalf("redundant lease %s not cancelled by the late result", l2.ID)
	}
	if status := postJSON(t, srv.URL, fastTok, "/v1/dist/heartbeat", Heartbeat{Lease: l2.ID, Worker: "fast"}, nil); status != http.StatusGone {
		t.Fatalf("heartbeat on cancelled lease: HTTP %d, want 410", status)
	}
	if got := store.LateAccepts.Value() - lateBefore; got != 1 {
		t.Fatalf("late-accept counter moved %d, want 1", got)
	}
	if p := j.Progress(); p.DonePoints != 1 {
		t.Fatalf("after late accept: %d points done, want exactly 1", p.DonePoints)
	}

	// The replacement finished anyway (cancellation raced its compute)
	// and reports the same point: a dedupe, not a second merge.
	dup := late
	dup.Lease, dup.Worker = l2.ID, "fast"
	if status := postJSON(t, srv.URL, fastTok, "/v1/dist/result", dup, nil); status != http.StatusOK {
		t.Fatalf("redundant result: HTTP %d", status)
	}
	if got := store.Dedupes.Value() - dupBefore; got != 1 {
		t.Fatalf("dedupe counter moved %d, want 1", got)
	}
	if p := j.Progress(); p.DonePoints != 1 {
		t.Fatalf("after dedupe: %d points done, want still 1", p.DonePoints)
	}

	// A real worker completes the rest; the table is byte-identical.
	testWorker(t, srv.URL, "")
	if got := waitTable(t, j); got != want {
		t.Fatalf("table after late accept + dedupe differs from direct:\n%s\nvs\n%s", got, want)
	}
}

// TestNoIdlePolling pins the long-poll dispatch: an idle worker parks
// one lease request on the coordinator instead of polling on a fixed
// interval, and a submitted job is picked up by wakeup — far faster than
// any poll period.
func TestNoIdlePolling(t *testing.T) {
	c, srv := testCoordinator(t, Config{LeasePoints: 1})
	w, err := StartWorker(WorkerConfig{
		Coordinator: srv.URL,
		Engine:      chaosEngine(),
		Heartbeat:   50 * time.Millisecond,
		LongPoll:    10 * time.Second,
		RetryBase:   10 * time.Millisecond,
		Log:         testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)

	// Idle window: the worker should register and park — a few requests
	// at most, not one per interval.
	time.Sleep(700 * time.Millisecond)
	if polls := w.Polls(); polls > 3 {
		t.Fatalf("idle worker issued %d lease requests in 700ms (long-poll should park; a fixed-interval poller would spin)", polls)
	} else if polls == 0 {
		t.Fatal("worker never asked for work")
	}

	// Submit against the parked poll: the wakeup must beat any plausible
	// poll period (the park bound is 10s; a fixed-interval poller would
	// take up to that long).
	start := time.Now()
	j, err := c.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	_, events, cancel := j.Subscribe(-1)
	defer cancel()
	select {
	case <-events:
	case <-time.After(5 * time.Second):
		t.Fatal("submitted job not picked up by the parked long-poll")
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("first point took %v after submit; the parked poll should have woken immediately", waited)
	}
	waitTable(t, j)
}

// TestBackoffOnTransportError pins the jittered exponential backoff: a
// worker facing a dead coordinator spaces its attempts out instead of
// hammering on a tight loop.
func TestBackoffOnTransportError(t *testing.T) {
	tr := &chaosTransport{base: http.DefaultTransport, failNth: 1} // every call fails pre-send
	w, err := StartWorker(WorkerConfig{
		Coordinator: "http://127.0.0.1:9", // discard port; transport fails first anyway
		Engine:      chaosEngine(),
		RetryBase:   25 * time.Millisecond,
		RetryMax:    200 * time.Millisecond,
		HTTPClient:  &http.Client{Transport: tr},
		Log:         testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	time.Sleep(900 * time.Millisecond)
	calls := tr.count()
	// Minimum-jitter spacing (base/2 doubling to max/2) admits ~13
	// attempts in 900ms; a non-backoff retry loop would make hundreds.
	if calls > 20 {
		t.Fatalf("%d attempts in 900ms against a dead coordinator — backoff is not backing off", calls)
	}
	if calls < 3 {
		t.Fatalf("only %d attempts in 900ms — retries seem stuck", calls)
	}
}

// TestAdaptiveLeaseSizing pins the sizing policy at the unit level:
// probe-first, latency-targeted, fleet-fair, clamped, and pinnable back
// to the legacy fixed size.
func TestAdaptiveLeaseSizing(t *testing.T) {
	c, _ := testCoordinator(t, Config{LeaseTarget: time.Second})
	j, err := c.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()

	if n := j.leaseSizeLocked(1); n != 1 {
		t.Fatalf("pre-estimate probe size %d, want 1", n)
	}
	j.observeLatencyLocked(0.05) // 50ms/point → 1s target = 20 points
	if j.estPerPoint != 0.05 {
		t.Fatalf("first observation est %v, want 0.05 (taken directly)", j.estPerPoint)
	}
	if n := j.leaseSizeLocked(1); n != 20 {
		t.Fatalf("sized %d at 50ms/point for a 1s target, want 20", n)
	}
	j.observeLatencyLocked(0.15) // EWMA 0.7·0.05 + 0.3·0.15 = 0.08
	if got := j.estPerPoint; got < 0.079 || got > 0.081 {
		t.Fatalf("EWMA est %v, want 0.08", got)
	}

	// Fleet fairness: 4 active workers over 6 pending points → ceil(6/4)
	// = 2 each, even though the latency target asks for more.
	if len(j.pending) != 6 {
		t.Fatalf("pending %d points, want 6", len(j.pending))
	}
	if n := j.leaseSizeLocked(4); n != 2 {
		t.Fatalf("share-capped size %d with 4 workers and 6 pending, want 2", n)
	}

	// Clamp: absurdly fast points must not produce unbounded leases.
	j.estPerPoint = 1e-9
	if n := j.leaseSizeLocked(1); n != maxAdaptiveLease {
		t.Fatalf("clamped size %d, want %d", n, maxAdaptiveLease)
	}

	// Legacy pin: LeasePoints > 0 bypasses the policy entirely.
	cPinned, _ := testCoordinator(t, Config{LeasePoints: 3})
	jp, err := cPinned.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	jp.mu.Lock()
	defer jp.mu.Unlock()
	jp.observeLatencyLocked(10)
	if n := jp.leaseSizeLocked(1); n != 3 {
		t.Fatalf("pinned size %d, want 3", n)
	}
}
