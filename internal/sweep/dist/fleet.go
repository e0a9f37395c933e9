package dist

// Fleet-wide event stream: worker lifecycle (join/drain/revoke/leave),
// lease lifecycle (grant/expire) and job milestones
// (submit/done/failed), sequenced and replayable — the dashboard view of
// the whole tier, complementing the per-job point streams served by
// cmd/cprecycle-bench.

import (
	"net/http"
	"strconv"

	"repro/internal/api"
)

// fleetRetain bounds the in-memory fleet event history. A reconnecting
// subscriber whose Last-Event-ID has been trimmed away resumes from the
// oldest retained event instead.
const fleetRetain = 8192

// emit appends a fleet event and fans it out to live subscribers. It is
// a lock leaf (only fmu) and therefore safe to call while holding j.mu,
// c.mu or c.wmu. A subscriber too slow to drain its buffer is dropped
// (its channel closes); the SSE layer's Last-Event-ID replay makes a
// reconnect lossless.
func (c *Coordinator) emit(ev FleetEvent) {
	c.fmu.Lock()
	defer c.fmu.Unlock()
	ev.Seq = c.fleetSeq
	c.fleetSeq++
	c.fleet = append(c.fleet, ev)
	if len(c.fleet) > fleetRetain {
		c.fleet = append(c.fleet[:0:0], c.fleet[len(c.fleet)-fleetRetain:]...)
	}
	for id, ch := range c.fleetSubs {
		select {
		case ch <- ev:
		default:
			delete(c.fleetSubs, id)
			close(ch)
			c.sseDropped.Add(1)
		}
	}
}

// SubscribeFleet returns the retained event history and a live channel
// for subsequent events. The channel closes when cancel is called, when
// the coordinator closes, or when the subscriber falls too far behind
// (reconnect and resume by Seq). Events with Seq <= after are omitted
// from the replay; pass -1 for everything retained.
func (c *Coordinator) SubscribeFleet(after int) (past []FleetEvent, ch <-chan FleetEvent, cancel func()) {
	c.fmu.Lock()
	defer c.fmu.Unlock()
	for _, ev := range c.fleet {
		if ev.Seq > after {
			past = append(past, ev)
		}
	}
	sub := make(chan FleetEvent, 256)
	if c.fleetSubs == nil {
		// Closed coordinator (closeFleetSubs nils the map): no live
		// tail, just the retained history.
		close(sub)
		return past, sub, func() {}
	}
	id := c.nextFSub
	c.nextFSub++
	c.fleetSubs[id] = sub
	return past, sub, func() {
		c.fmu.Lock()
		defer c.fmu.Unlock()
		if s, ok := c.fleetSubs[id]; ok {
			delete(c.fleetSubs, id)
			close(s)
		}
	}
}

// closeFleetSubs ends every live fleet subscription (coordinator
// shutdown).
func (c *Coordinator) closeFleetSubs() {
	c.fmu.Lock()
	defer c.fmu.Unlock()
	for id, ch := range c.fleetSubs {
		delete(c.fleetSubs, id)
		close(ch)
	}
	c.fleetSubs = nil
}

// fleetEventsHandler serves GET /v1/dist/events: an SSE stream of
// FleetEvents. Each event's SSE id is its sequence number and its SSE
// event name is its type, e.g.
//
//	id: 12
//	event: lease-grant
//	data: {"seq":12,"type":"lease-grant","worker":"w2","job":"j1","lease":"j1-l3","points":4}
//
// A reconnecting consumer presents the standard Last-Event-ID header and
// resumes after that sequence number (subject to the retention bound).
// The stream runs until the client disconnects or the coordinator shuts
// down.
func (c *Coordinator) fleetEventsHandler(w http.ResponseWriter, r *http.Request) {
	err := api.ServeSSE(w, r, c.SubscribeFleet, func(ev FleetEvent) api.Frame {
		return api.Frame{ID: strconv.Itoa(ev.Seq), Event: ev.Type, Data: ev}
	}, nil)
	if err != nil {
		c.log.Warn("streaming fleet events", "err", err)
	}
}
