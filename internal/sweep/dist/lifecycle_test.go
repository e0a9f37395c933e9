package dist

// Lifecycle corner cases: drain during an in-flight lease, revocation
// mid-lease, a coordinator restart while a worker is draining, and a
// late result from an already-drained worker — each observed through
// the coordinator's counters and registries — plus the lease progress
// age that tells a wedged worker from a busy one.

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds, failing the test after a minute.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
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
	j, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	w := testWorker(t, srv.URL, "")
	waitFor(t, "a lease grant", func() bool { return w.Stats().Leases > 0 })
	w.Drain() // SIGTERM equivalent, mid-lease

	select {
	case <-w.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("drained worker never exited")
	}
	// The in-flight lease's result must have been accepted before the
	// deregistration — not dropped, not re-queued.
	if p := j.Progress(); p.DonePoints < 2 {
		t.Fatalf("drained worker's in-flight lease was not merged: %+v", p)
	}
	if st := c.Stats(); st.LeaseExpiries != 0 || st.RequeuedPoints != 0 {
		t.Fatalf("drain path re-queued work: %d lease expiries, %d re-queued points", st.LeaseExpiries, st.RequeuedPoints)
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
	j, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	id, token := registerManual(t, srv.URL, "", "rogue")
	l := manualLease(t, srv.URL, token, "rogue")

	if !c.RevokeWorker(id) {
		t.Fatal("revoke failed")
	}
	st := c.Stats()
	if st.Revocations != 1 || st.RequeuedPoints != int64(len(l.Points)) {
		t.Fatalf("after revoke: %d revocations, %d re-queued points; want 1 and the lease's %d",
			st.Revocations, st.RequeuedPoints, len(l.Points))
	}
	if c.jobForLease(l.ID) != nil {
		t.Fatalf("revoked worker's lease %s still live", l.ID)
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
	j1, err := first.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	w := testWorker(t, srv.URL, "")
	waitFor(t, "a lease grant", func() bool { return first.Stats().LeasesGranted > 0 })
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
	if c.jobForLease(l.ID) != nil {
		t.Fatalf("deregistered worker's lease %s still live", l.ID)
	}
	if st := c.Stats(); st.LeaseExpiries != 1 || st.RequeuedPoints != int64(len(l.Points)) {
		t.Fatalf("after deregister: %d lease expiries, %d re-queued points; want 1 and the lease's %d",
			st.LeaseExpiries, st.RequeuedPoints, len(l.Points))
	}

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
