package sweep

import (
	"context"
	"errors"
	"testing"
)

// TestJobLogResumeAndSettle pins the shared job event log: Subscribe's
// after argument filters both the replay and the live tail (a resume
// point ahead of the log skips events until it is passed), Finish
// settles once — closing subscriptions, releasing the store pins and
// closing Done — and Outcome/Wait report the settled state.
func TestJobLogResumeAndSettle(t *testing.T) {
	unpins := 0
	l := NewJobLog(5, func() { unpins++ })
	publish := func(point int) { l.Publish(PointEvent{Point: point, N: 1, OK: []int{1}}) }
	publish(7)
	publish(8)

	all, allCh, _ := l.Subscribe(-1)
	if len(all) != 2 || all[0].Seq != 0 || all[1].Seq != 1 || all[1].Point != 8 {
		t.Fatalf("full replay %+v", all)
	}
	past, _, _ := l.Subscribe(0)
	if len(past) != 1 || past[0].Seq != 1 {
		t.Fatalf("replay after 0: %+v", past)
	}
	ahead, aheadCh, _ := l.Subscribe(3)
	if len(ahead) != 0 {
		t.Fatalf("replay after 3: %+v", ahead)
	}
	_, cancelledCh, cancel := l.Subscribe(-1)
	cancel()
	if _, open := <-cancelledCh; open {
		t.Fatal("cancelled subscription still open")
	}

	publish(9)  // seq 2
	publish(10) // seq 3
	publish(11) // seq 4
	var p Progress
	if l.Outcome(&p); p.State != "running" || l.Finished() {
		t.Fatalf("outcome before settle: %+v", p)
	}
	if !l.Finish(nil, nil, nil) || l.Finish(nil, nil, errors.New("late")) {
		t.Fatal("Finish must settle exactly once")
	}
	publish(12) // dropped: the job has settled

	var live []int
	for ev := range aheadCh {
		live = append(live, ev.Seq)
	}
	if len(live) != 1 || live[0] != 4 {
		t.Errorf("live tail after 3: seqs %v, want [4]", live)
	}
	n := 0
	for range allCh {
		n++
	}
	if n != 3 {
		t.Errorf("live tail after -1: %d events, want 3", n)
	}
	select {
	case <-l.Done():
	default:
		t.Fatal("Done still open after Finish")
	}
	if unpins != 1 {
		t.Errorf("store pins released %d times, want 1", unpins)
	}
	if l.Outcome(&p); p.State != "done" || p.Error != "" {
		t.Errorf("outcome after settle: %+v", p)
	}
	if res, err := l.Wait(context.Background()); err != nil || res == nil {
		t.Errorf("Wait = %v, %v", res, err)
	}
	if late, ch, _ := l.Subscribe(-1); len(late) != 5 {
		t.Errorf("replay after settle: %d events, want 5", len(late))
	} else if _, open := <-ch; open {
		t.Error("subscription to a settled job is open")
	}

	failed := NewJobLog(1, nil)
	failed.Finish(nil, nil, context.Canceled)
	if _, err := failed.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Errorf("failed Wait error %v", err)
	}
	if failed.Outcome(&p); p.State != "failed" || p.Error != context.Canceled.Error() {
		t.Errorf("failed outcome %+v", p)
	}
}
