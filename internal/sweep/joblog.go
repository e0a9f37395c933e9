package sweep

import (
	"context"
	"sync"
	"time"

	"repro/internal/experiments"
)

// JobLog is the event log and terminal state every sweep job shares: the
// in-process engine's Job and the distributed coordinator's dist.Job
// both embed one. It numbers published points 0,1,… in completion order,
// fans each out to subscribers, and settles exactly once into a result
// or an error. Subscribe, Done, Wait and Outcome serve a job's readers;
// Publish and Finish are for the job implementations. All methods are
// safe for concurrent use. Its lock is a leaf, so a job may call in
// while holding its own lock.
type JobLog struct {
	start time.Time
	bufN  int    // subscriber buffer: every point the job can publish, plus one
	unpin func() // releases the job's store pins at settle (nil: none)
	done  chan struct{}

	mu       sync.Mutex
	events   []PointEvent
	subs     map[int]subscriber
	nextSub  int
	finished bool
	err      error
	res      Result
}

type subscriber struct {
	ch    chan PointEvent
	after int
}

// NewJobLog starts the log of a job that can publish up to points
// events. unpin, when non-nil, runs once when the job settles.
func NewJobLog(points int, unpin func()) *JobLog {
	return &JobLog{
		start: time.Now(),
		bufN:  points + 1,
		unpin: unpin,
		done:  make(chan struct{}),
		subs:  make(map[int]subscriber),
	}
}

// Subscribe returns the points completed so far with Seq > after (in
// completion order; pass -1 for all of them) plus a channel delivering
// each later completion with Seq > after. The channel is buffered for
// every event the job can publish, so publishing never blocks, and it is
// closed when the job settles (any outcome) or when cancel is called.
// Callers pair the stream with Done or Progress to learn the final
// state.
func (l *JobLog) Subscribe(after int) (past []PointEvent, ch <-chan PointEvent, cancel func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	// Seqs are dense from 0, so the replay is a suffix of the log.
	if after+1 < len(l.events) {
		past = append([]PointEvent(nil), l.events[max(after+1, 0):]...)
	}
	c := make(chan PointEvent, l.bufN)
	if l.finished {
		close(c)
		return past, c, func() {}
	}
	id := l.nextSub
	l.nextSub++
	l.subs[id] = subscriber{ch: c, after: after}
	return past, c, func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		if s, ok := l.subs[id]; ok {
			delete(l.subs, id)
			close(s.ch)
		}
	}
}

// Publish numbers ev (setting its Seq), records it and fans it out to
// subscribers. Events published after the job settled are dropped. Sends
// and subscriber closes both happen under the log's lock, so a send can
// never race a close.
func (l *JobLog) Publish(ev PointEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.finished {
		return
	}
	ev.Seq = len(l.events)
	l.events = append(l.events, ev)
	for _, s := range l.subs {
		if ev.Seq > s.after {
			s.ch <- ev
		}
	}
}

// Finish settles the job: with err nil the table and per-point tallies
// become its result, otherwise err is its failure. Only the first call
// counts; it reports whether this call settled the job. Subscriber
// channels close, the store pins are released, then Done closes.
func (l *JobLog) Finish(table *experiments.Table, points [][]experiments.PSRPoint, err error) bool {
	l.mu.Lock()
	if l.finished {
		l.mu.Unlock()
		return false
	}
	l.finished = true
	l.err = err
	l.res = Result{Table: table, Points: points, Elapsed: time.Since(l.start)}
	for id, s := range l.subs {
		delete(l.subs, id)
		close(s.ch)
	}
	l.mu.Unlock()
	if l.unpin != nil {
		l.unpin()
	}
	close(l.done)
	return true
}

// Finished reports whether the job has settled.
func (l *JobLog) Finished() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.finished
}

// Outcome fills p's State, Error and ElapsedSec from the log.
func (l *JobLog) Outcome(p *Progress) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case !l.finished:
		p.State = "running"
		p.ElapsedSec = time.Since(l.start).Seconds()
		return
	case l.err != nil:
		p.State = "failed"
		p.Error = l.err.Error()
	default:
		p.State = "done"
	}
	p.ElapsedSec = l.res.Elapsed.Seconds()
}

// Done returns a channel closed when the job settles (any outcome).
func (l *JobLog) Done() <-chan struct{} { return l.done }

// Wait blocks until the job settles or ctx expires, then returns its
// result (table and raw per-point tallies) or its failure.
func (l *JobLog) Wait(ctx context.Context) (*Result, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-l.done:
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return nil, l.err
	}
	res := l.res
	return &res, nil
}
