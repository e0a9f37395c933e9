package api

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Frame is one server-sent event. An empty ID writes no id: line; Data is
// sent JSON-encoded on a single data: line.
type Frame struct {
	ID    string
	Event string
	Data  any
}

// ServeSSE serves a /v1 job event stream as text/event-stream. It reads
// the standard Last-Event-ID resume hint (a malformed id means full
// replay), calls subscribe with it (-1 when absent), writes the
// replayed events and then the live ones, each framed by frame and
// flushed at once. When the live channel closes, final supplies one
// last, terminal frame. The stream stops early when the client goes
// away or a write or flush fails. A ResponseWriter that cannot stream is
// answered with the JSON error envelope. The returned error is a frame
// that would not encode; the status line is out by then, so callers can
// only log it.
//
// Each frame is written as
//
//	id: <ID>
//	event: <Event>
//	data: <JSON of Data>
//
// followed by a blank line.
func ServeSSE[E any](w http.ResponseWriter, r *http.Request,
	subscribe func(after int) (past []E, live <-chan E, cancel func()),
	frame func(E) Frame, final func() Frame) error {
	if _, ok := w.(http.Flusher); !ok {
		Errorf(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return nil
	}
	after := -1
	if n, err := strconv.Atoi(r.Header.Get("Last-Event-ID")); err == nil {
		after = n
	}
	past, live, cancel := subscribe(after)
	defer cancel()
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	var buf []byte
	// send writes one frame and reports whether to go on: false with a
	// nil error means the client is gone.
	send := func(f Frame) (bool, error) {
		data, err := json.Marshal(f.Data)
		if err != nil {
			return false, fmt.Errorf("api: encoding %q event: %w", f.Event, err)
		}
		buf = buf[:0]
		if f.ID != "" {
			buf = fmt.Appendf(buf, "id: %s\n", f.ID)
		}
		buf = fmt.Appendf(buf, "event: %s\ndata: %s\n\n", f.Event, data)
		if _, err := w.Write(buf); err != nil {
			return false, nil
		}
		// A flush error means the client is gone too: stop now instead
		// of spinning until the next write fails.
		return rc.Flush() == nil, nil
	}
	for _, ev := range past {
		if ok, err := send(frame(ev)); !ok {
			return err
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return nil
		case ev, open := <-live:
			if !open {
				_, err := send(final())
				return err
			}
			if ok, err := send(frame(ev)); !ok {
				return err
			}
		}
	}
}

// Event is one frame read back from a text/event-stream body.
type Event struct {
	ID    string
	Event string
	Data  string
}

// ReadSSE reads a text/event-stream body and calls fn with each frame at
// its closing blank line, until fn returns false or the stream ends. It
// returns the read error, or nil at EOF or when fn stopped it. Only the
// grammar ServeSSE writes is handled: id, event and one data line per
// frame, plus comment lines (keep-alives), which are skipped.
func ReadSSE(r io.Reader, fn func(Event) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var ev Event
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			if ev != (Event{}) && !fn(ev) {
				return nil
			}
			ev = Event{}
			continue
		}
		field, value, _ := strings.Cut(line, ":")
		value = strings.TrimPrefix(value, " ")
		switch field {
		case "id":
			ev.ID = value
		case "event":
			ev.Event = value
		case "data":
			ev.Data = value
		}
	}
	return sc.Err()
}
