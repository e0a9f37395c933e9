package dist

// Lifecycle corner cases: drain during an in-flight lease, revocation
// mid-lease, a coordinator restart while a worker is draining, and a
// late result from an already-drained worker — plus the fleet event
// stream they are all observable on, and the lease progress age that
// tells a wedged worker from a busy one.

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sweep"
)

// collectFleet subscribes to the fleet stream and returns a fetch
// function that yields every event seen so far.
func collectFleet(t *testing.T, c *Coordinator) func() []FleetEvent {
	t.Helper()
	past, ch, cancel := c.SubscribeFleet(-1)
	t.Cleanup(cancel)
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	events := append([]FleetEvent(nil), past...)
	go func() {
		for ev := range ch {
			<-mu
			events = append(events, ev)
			mu <- struct{}{}
		}
	}()
	return func() []FleetEvent {
		<-mu
		out := append([]FleetEvent(nil), events...)
		mu <- struct{}{}
		return out
	}
}

// waitFleet blocks until an event of the given type (and, when non-empty,
// detail substring) has been seen.
func waitFleet(t *testing.T, fetch func() []FleetEvent, typ, detail string) FleetEvent {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		for _, ev := range fetch() {
			if ev.Type == typ && (detail == "" || strings.Contains(ev.Detail, detail)) {
				return ev
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %q fleet event (detail~%q); saw %+v", typ, detail, fetch())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDrainDuringInFlightLease pins the graceful scale-down contract: a
// worker drained (the SIGTERM path) while a lease is in flight finishes
// that lease, has its result accepted, deregisters, and NOTHING goes
// back through TTL expiry — the lease TTL is a minute, so any
// TTL-dependent re-queue would stall the test far past its deadlines.
func TestDrainDuringInFlightLease(t *testing.T) {
	spec := testSpec()
	spec.Packets = 12
	want := directTable(t, spec)

	c, srv := testCoordinator(t, Config{LeasePoints: 2, LeaseTTL: 60 * time.Second})
	fetch := collectFleet(t, c)
	j, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	w := testWorker(t, srv.URL, "")
	grant := waitFleet(t, fetch, "lease-grant", "")
	w.Drain() // SIGTERM equivalent, mid-lease

	select {
	case <-w.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("drained worker never exited")
	}
	leave := waitFleet(t, fetch, "worker-leave", "")
	if leave.Worker != grant.Worker {
		t.Fatalf("worker %s left, expected the drained %s", leave.Worker, grant.Worker)
	}
	// The in-flight lease's result must have been accepted before the
	// deregistration — not dropped, not re-queued.
	if p := j.Progress(); p.DonePoints < 2 {
		t.Fatalf("drained worker's in-flight lease was not merged: %+v", p)
	}
	for _, ev := range fetch() {
		if ev.Type == "lease-expire" {
			t.Fatalf("drain path re-queued a lease: %+v", ev)
		}
	}
	if infos := c.WorkerInfos(); len(infos) != 0 {
		t.Fatalf("drained worker still registered: %+v", infos)
	}

	// A fresh worker finishes the rest; the table is still byte-exact.
	testWorker(t, srv.URL, "")
	if got := waitTable(t, j); got != want {
		t.Fatalf("table after drain differs from direct:\n%s\nvs\n%s", got, want)
	}
}

// TestRevokeMidLease pins the abrupt cut: revoking a worker mid-lease
// re-queues its points immediately (no TTL wait — the TTL here is a
// minute), its late result bounces off the auth layer with 403 and never
// reaches the merge, and the sweep still finishes byte-identical.
func TestRevokeMidLease(t *testing.T) {
	spec := testSpec()
	want := directTable(t, spec)

	c, srv := testCoordinator(t, Config{LeasePoints: 2, LeaseTTL: 60 * time.Second})
	fetch := collectFleet(t, c)
	j, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	id, token := registerManual(t, srv.URL, "", "rogue")
	l := manualLease(t, srv.URL, token, "rogue")

	if !c.RevokeWorker(id) {
		t.Fatal("revoke failed")
	}
	waitFleet(t, fetch, "worker-revoke", "")
	requeued := waitFleet(t, fetch, "lease-expire", "revoked")
	if requeued.Lease != l.ID {
		t.Fatalf("re-queued lease %s, want the revoked worker's %s", requeued.Lease, l.ID)
	}

	// The rogue's result — correct tallies or not — must be rejected at
	// the door, and nothing may merge.
	res := LeaseResult{Lease: l.ID, Job: l.Job, Worker: "rogue", Fingerprint: l.Fingerprint}
	if status := postJSON(t, srv.URL, token, "/v1/dist/result", res, nil); status != http.StatusForbidden {
		t.Fatalf("revoked worker's result: HTTP %d, want 403", status)
	}
	if p := j.Progress(); p.DonePoints != 0 {
		t.Fatalf("revoked worker's work merged anyway: %+v", p)
	}

	testWorker(t, srv.URL, "")
	if got := waitTable(t, j); got != want {
		t.Fatalf("table after revocation differs from direct:\n%s\nvs\n%s", got, want)
	}
}

// TestCoordinatorRestartWhileDraining pins the ugliest overlap: the
// coordinator dies (kill -9: no shutdown, registry lost) while a worker
// is mid-drain with a lease in flight. The replacement coordinator
// replays jobs from the store; the draining worker hits 401, re-registers
// transparently, finishes its drain (its lease either merges or is
// re-issued — both are sound) and exits; a fresh worker completes the
// job byte-identically.
func TestCoordinatorRestartWhileDraining(t *testing.T) {
	spec := testSpec()
	spec.Packets = 12
	want := directTable(t, spec)
	dir := t.TempDir()

	// The worker sees one stable URL; the coordinator behind it is
	// swappable — that is what a restart looks like from outside.
	var handler atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	first, err := New(Config{LeasePoints: 2, LeaseTTL: 60 * time.Second, StoreDir: dir, Log: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	handler.Store(first.Handler())
	fetchFirst := collectFleet(t, first)
	j1, err := first.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	w := testWorker(t, srv.URL, "")
	waitFleet(t, fetchFirst, "lease-grant", "")
	w.Drain()

	// Kill -9 the first coordinator: swap the handler, never Close it.
	second, err := New(Config{LeasePoints: 2, LeaseTTL: 60 * time.Second, StoreDir: dir, Log: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(second.Close)
	handler.Store(second.Handler())

	select {
	case <-w.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("draining worker never exited across the coordinator restart")
	}

	j2 := second.Job(j1.ID)
	if j2 == nil {
		t.Fatalf("job %s not replayed by the second coordinator", j1.ID)
	}
	testWorker(t, srv.URL, "")
	if got := waitTable(t, j2); got != want {
		t.Fatalf("table after restart-while-draining differs from direct:\n%s\nvs\n%s", got, want)
	}
	if infos := second.WorkerInfos(); len(infos) != 1 {
		// Only the finishing worker may remain; the drained one must have
		// deregistered from the NEW coordinator it re-registered with.
		for _, wi := range infos {
			if wi.State == workerDraining {
				t.Fatalf("draining worker leaked into the new registry: %+v", infos)
			}
		}
	}
}

// TestLateResultFromDrainedWorker pins the post-drain door: once a
// drained worker deregisters, its points re-queue immediately and any
// result it still sends is refused (401 — it is no longer registered)
// and never merges.
func TestLateResultFromDrainedWorker(t *testing.T) {
	spec := testSpec()
	want := directTable(t, spec)

	c, srv := testCoordinator(t, Config{LeasePoints: 2, LeaseTTL: 60 * time.Second})
	fetch := collectFleet(t, c)
	j, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	id, token := registerManual(t, srv.URL, "", "laggard")
	l := manualLease(t, srv.URL, token, "laggard")

	// Server-side drain; the directive must piggy-back on the heartbeat.
	if !c.DrainWorker(id) {
		t.Fatal("drain failed")
	}
	var hb HeartbeatResponse
	if status := postJSON(t, srv.URL, token, "/v1/dist/heartbeat", Heartbeat{Lease: l.ID, Worker: "laggard"}, &hb); status != http.StatusOK || !hb.Drain {
		t.Fatalf("heartbeat after drain: HTTP %d drain=%v, want 200 with the drain flag", status, hb.Drain)
	}

	// The laggard deregisters WITHOUT reporting (an operator impatient
	// with a wedged lease): its points must re-queue now, not at TTL.
	if status := postJSON(t, srv.URL, token, "/v1/dist/deregister", struct{}{}, nil); status != http.StatusOK {
		t.Fatalf("deregister: HTTP %d", status)
	}
	waitFleet(t, fetch, "lease-expire", "deregistered")

	// Its late result must bounce (the registration is gone) and merge
	// nothing.
	res := LeaseResult{Lease: l.ID, Job: l.Job, Worker: "laggard", Fingerprint: l.Fingerprint}
	if status := postJSON(t, srv.URL, token, "/v1/dist/result", res, nil); status != http.StatusUnauthorized {
		t.Fatalf("late result from drained worker: HTTP %d, want 401", status)
	}
	if p := j.Progress(); p.DonePoints != 0 {
		t.Fatalf("late result merged anyway: %+v", p)
	}

	testWorker(t, srv.URL, "")
	if got := waitTable(t, j); got != want {
		t.Fatalf("table after late-result drop differs from direct:\n%s\nvs\n%s", got, want)
	}
}

// TestMemBudgetSelfDrain pins the worker memory watchdog: a worker with
// an impossibly low heap budget notices the overage on its first
// runtime/metrics sample and takes the ordinary graceful-drain path —
// it deregisters and exits on its own, nothing waits for a lease TTL,
// and the sweep still completes byte-identically on an unconstrained
// worker.
func TestMemBudgetSelfDrain(t *testing.T) {
	spec := testSpec()
	want := directTable(t, spec)
	c, srv := testCoordinator(t, Config{LeasePoints: 2, LeaseTTL: 60 * time.Second})
	j, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	w, err := StartWorker(WorkerConfig{
		Coordinator:   srv.URL,
		Engine:        sweep.Config{Workers: 2, ShardPackets: 2},
		Heartbeat:     50 * time.Millisecond,
		RetryBase:     10 * time.Millisecond,
		RetryMax:      100 * time.Millisecond,
		MemBudget:     1, // one byte: any live heap exceeds it
		MemCheckEvery: 5 * time.Millisecond,
		Log:           testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	select {
	case <-w.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("over-budget worker never drained itself")
	}
	if !w.Draining() {
		t.Fatal("worker exited without its drain flag set")
	}
	if infos := c.WorkerInfos(); len(infos) != 0 {
		t.Fatalf("self-drained worker still registered: %+v", infos)
	}
	testWorker(t, srv.URL, "")
	if got := waitTable(t, j); got != want {
		t.Fatalf("table after mem-budget drain differs from direct:\n%s\nvs\n%s", got, want)
	}
}

// TestCPUBudgetSelfDrain pins the CPU watchdog the same way: a worker
// whose injected CPU sampler reports a rate far over -cpu-budget for
// CPUSustain consecutive checks takes the ordinary graceful-drain path,
// and the sweep completes byte-identically on an unconstrained worker.
func TestCPUBudgetSelfDrain(t *testing.T) {
	spec := testSpec()
	want := directTable(t, spec)
	c, srv := testCoordinator(t, Config{LeasePoints: 2, LeaseTTL: 60 * time.Second})
	j, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	cpu := 0.0
	w, err := StartWorker(WorkerConfig{
		Coordinator:   srv.URL,
		Engine:        sweep.Config{Workers: 2, ShardPackets: 2},
		Heartbeat:     50 * time.Millisecond,
		RetryBase:     10 * time.Millisecond,
		RetryMax:      100 * time.Millisecond,
		CPUBudget:     0.5,
		CPUCheckEvery: 5 * time.Millisecond,
		CPUSustain:    2,
		// Every sample adds 10 CPU-seconds, so the measured rate is
		// thousands of cores against a budget of half a core.
		CPUSample: func() (float64, bool) { cpu += 10; return cpu, true },
		Log:       testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	select {
	case <-w.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("over-CPU-budget worker never drained itself")
	}
	if !w.Draining() {
		t.Fatal("worker exited without its drain flag set")
	}
	if infos := c.WorkerInfos(); len(infos) != 0 {
		t.Fatalf("self-drained worker still registered: %+v", infos)
	}
	testWorker(t, srv.URL, "")
	if got := waitTable(t, j); got != want {
		t.Fatalf("table after cpu-budget drain differs from direct:\n%s\nvs\n%s", got, want)
	}
}

// TestFleetEventStream pins the dashboard surface: the in-process
// subscription replays history with strictly increasing sequence
// numbers, and the SSE endpoint authenticates with the join secret and
// honours Last-Event-ID resume.
func TestFleetEventStream(t *testing.T) {
	c, srv := testCoordinator(t, Config{LeasePoints: 2, Token: "admin"})
	j, err := c.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	testWorker(t, srv.URL, "admin")
	waitTable(t, j)

	past, _, cancel := c.SubscribeFleet(-1)
	cancel()
	seen := map[string]bool{}
	for i, ev := range past {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d; want dense increasing seqs", i, ev.Seq)
		}
		seen[ev.Type] = true
	}
	for _, typ := range []string{"job-submit", "worker-join", "lease-grant", "job-done"} {
		if !seen[typ] {
			t.Fatalf("no %q event in %+v", typ, past)
		}
	}

	// SSE: secret-gated, Last-Event-ID honoured, one SSE frame per event
	// with the seq as its id and the type as its event name.
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/dist/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("secretless SSE: HTTP %d, want 401", resp.StatusCode)
		}
	}
	ctx, cancelReq := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelReq()
	req = req.Clone(ctx)
	req.Header.Set("Authorization", "Bearer admin")
	req.Header.Set("Last-Event-ID", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("SSE response: HTTP %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	sc := bufio.NewScanner(resp.Body)
	var ids, types []string
	for sc.Scan() && (len(ids) < 3 || len(types) < 3) {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "id: "); ok {
			ids = append(ids, v)
		}
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			types = append(types, v)
		}
	}
	if len(ids) < 3 || len(types) < 3 {
		t.Fatalf("SSE replay too short: ids=%v types=%v", ids, types)
	}
	if ids[0] != "2" {
		t.Fatalf("first replayed id %s, want 2 (Last-Event-ID: 1 must skip 0 and 1)", ids[0])
	}
	for i, typ := range types {
		if typ != past[i+2].Type {
			t.Fatalf("SSE event %d is %q, subscription saw %q", i, typ, past[i+2].Type)
		}
	}
}

// TestLeaseProgressAge pins the wedged-worker signal an operator drains
// or revokes on. Workers are driven by hand over HTTP: a lease whose
// heartbeats report no new packets ages in LastProgressSec while the
// worker's IdleSec stays small, a heartbeat whose DonePackets grew
// resets the age, a worker holding no lease reports −1, and
// Stats().OldestProgressSec follows the stalest live lease. Every bound
// is taken from wall-clock stamps around the HTTP calls, so the test
// holds on a slow machine.
func TestLeaseProgressAge(t *testing.T) {
	c, srv := testCoordinator(t, Config{LeasePoints: 1, LeaseTTL: time.Minute})
	if _, err := c.Submit(testSpec()); err != nil {
		t.Fatal(err)
	}
	idA, tokA := registerManual(t, srv.URL, "", "wedged")
	idB, tokB := registerManual(t, srv.URL, "", "second")
	registerManual(t, srv.URL, "", "idle-1")
	registerManual(t, srv.URL, "", "idle-2")

	// lease grants a lease and returns the instants just before the
	// request and just after the answer: the grant lies between them.
	lease := func(tok, name string) (l Lease, sent, got time.Time) {
		sent = time.Now()
		l = manualLease(t, srv.URL, tok, name)
		return l, sent, time.Now()
	}
	// heartbeat reports done packets and returns when it was sent.
	heartbeat := func(tok, name string, l Lease, done int64) time.Time {
		sent := time.Now()
		if status := postJSON(t, srv.URL, tok, "/v1/dist/heartbeat", Heartbeat{Lease: l.ID, Worker: name, DonePackets: done}, nil); status != http.StatusOK {
			t.Fatalf("%s heartbeat: HTTP %d", name, status)
		}
		return sent
	}
	// infos snapshots the registry by worker id, with the instants
	// bracketing the snapshot.
	infos := func() (m map[string]WorkerInfo, before, after time.Time) {
		before = time.Now()
		list := c.WorkerInfos()
		after = time.Now()
		m = make(map[string]WorkerInfo, len(list))
		var ids []string
		for _, wi := range list {
			m[wi.ID] = wi
			ids = append(ids, wi.ID)
		}
		if want := []string{"w1", "w2", "w3", "w4"}; strings.Join(ids, ",") != strings.Join(want, ",") {
			t.Fatalf("WorkerInfos order %v, want registration order %v", ids, want)
		}
		return m, before, after
	}
	secs := func(d time.Duration) float64 { return d.Seconds() }

	la, aSent, aGot := lease(tokA, "wedged")
	time.Sleep(150 * time.Millisecond)
	lb, bSent, bGot := lease(tokB, "second")
	var last time.Time
	for range 3 {
		time.Sleep(100 * time.Millisecond)
		heartbeat(tokB, "second", lb, 0)
		last = heartbeat(tokA, "wedged", la, 0)
	}

	m, before, after := infos()
	a := m[idA]
	if lo, hi := secs(before.Sub(aGot)), secs(after.Sub(aSent)); a.LastProgressSec < lo || a.LastProgressSec > hi {
		t.Fatalf("wedged LastProgressSec = %.3f, want the age of its grant, in [%.3f, %.3f]", a.LastProgressSec, lo, hi)
	}
	if hi := secs(after.Sub(last)); a.IdleSec > hi {
		t.Fatalf("wedged IdleSec = %.3f, want at most %.3f since its last heartbeat", a.IdleSec, hi)
	}
	if a.LastProgressSec <= a.IdleSec {
		t.Fatalf("wedged LastProgressSec %.3f did not outgrow IdleSec %.3f", a.LastProgressSec, a.IdleSec)
	}
	for _, id := range []string{"w3", "w4"} {
		if got := m[id].LastProgressSec; got != -1 {
			t.Fatalf("lease-less worker %s LastProgressSec = %v, want -1", id, got)
		}
	}
	st := c.Stats()
	if lo := secs(before.Sub(aGot)); st.OldestProgressSec < lo {
		t.Fatalf("OldestProgressSec = %.3f, want the wedged lease's age ≥ %.3f", st.OldestProgressSec, lo)
	}

	// Progress on the wedged lease resets its age; the second lease is
	// now the stalest.
	reset := heartbeat(tokA, "wedged", la, 2)
	m, before, after = infos()
	if a, lo, hi := m[idA].LastProgressSec, 0.0, secs(after.Sub(reset)); a < lo || a > hi {
		t.Fatalf("after progress, wedged LastProgressSec = %.3f, want in [%.3f, %.3f]", a, lo, hi)
	}
	if b, lo, hi := m[idB].LastProgressSec, secs(before.Sub(bGot)), secs(after.Sub(bSent)); b < lo || b > hi {
		t.Fatalf("second LastProgressSec = %.3f, want the age of its grant, in [%.3f, %.3f]", b, lo, hi)
	}
	before = time.Now()
	st = c.Stats()
	after = time.Now()
	if lo, hi := secs(before.Sub(bGot)), secs(after.Sub(bSent)); st.OldestProgressSec < lo || st.OldestProgressSec > hi {
		t.Fatalf("OldestProgressSec = %.3f, want the second lease's age in [%.3f, %.3f]", st.OldestProgressSec, lo, hi)
	}
}
