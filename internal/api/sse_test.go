package api_test

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/sweep"
)

// feed is a canned subscription: past replays, then live delivers its
// events and closes. It records the resume point it was asked for and
// whether the stream cancelled it.
type feed[E any] struct {
	past      []E
	live      []E
	after     int
	cancelled bool
}

func (f *feed[E]) subscribe(after int) ([]E, <-chan E, func()) {
	f.after = after
	ch := make(chan E, len(f.live))
	for _, ev := range f.live {
		ch <- ev
	}
	close(ch)
	return f.past, ch, func() { f.cancelled = true }
}

func pointFrame(ev sweep.PointEvent) api.Frame {
	return api.Frame{ID: strconv.Itoa(ev.Seq), Event: "point", Data: ev}
}

// doneFrame is a terminal frame for tests that do not inspect it.
func doneFrame() api.Frame {
	return api.Frame{Event: "done", Data: map[string]string{"state": "done"}}
}

// TestServeSSEPointStreamGolden pins the job stream's bytes: replayed
// and live points framed with their seq as id, then the id-less
// terminal done frame once the live channel closes.
func TestServeSSEPointStreamGolden(t *testing.T) {
	f := &feed[sweep.PointEvent]{
		past: []sweep.PointEvent{{Seq: 0, Point: 1, N: 2, OK: []int{1, 2}, DonePoints: 1, Points: 2}},
		live: []sweep.PointEvent{{Seq: 1, Point: 0, N: 2, OK: []int{0, 2}, DonePoints: 2, Points: 2}},
	}
	rec := httptest.NewRecorder()
	err := api.ServeSSE(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/j1/events", nil), f.subscribe, pointFrame,
		func() api.Frame {
			return api.Frame{Event: "done", Data: sweep.Progress{ID: "j1", Experiment: "fig8", State: "done", Points: 2, DonePoints: 2}}
		})
	if err != nil {
		t.Fatal(err)
	}
	want := "id: 0\nevent: point\ndata: {\"seq\":0,\"point\":1,\"n\":2,\"ok\":[1,2],\"done_points\":1,\"points\":2}\n\n" +
		"id: 1\nevent: point\ndata: {\"seq\":1,\"point\":0,\"n\":2,\"ok\":[0,2],\"done_points\":2,\"points\":2}\n\n" +
		"event: done\ndata: {\"id\":\"j1\",\"experiment\":\"fig8\",\"state\":\"done\",\"points\":2,\"done_points\":2,\"packets\":0,\"done_packets\":0,\"elapsed_sec\":0}\n\n"
	if got := rec.Body.String(); got != want {
		t.Errorf("body:\n%q\nwant\n%q", got, want)
	}
	for k, v := range map[string]string{"Content-Type": "text/event-stream", "Cache-Control": "no-cache", "Connection": "keep-alive"} {
		if got := rec.Header().Get(k); got != v {
			t.Errorf("%s = %q, want %q", k, got, v)
		}
	}
	if rec.Code != http.StatusOK || !f.cancelled {
		t.Errorf("status %d, subscription cancelled %v", rec.Code, f.cancelled)
	}
}

// TestServeSSELastEventID pins the resume hint: a numeric Last-Event-ID
// is the subscription's resume point, and an absent or malformed one
// means a full replay (-1).
func TestServeSSELastEventID(t *testing.T) {
	for header, want := range map[string]int{"": -1, "3": 3, "0": 0, "not-a-number": -1} {
		f := &feed[sweep.PointEvent]{}
		req := httptest.NewRequest(http.MethodGet, "/v1/jobs/j1/events", nil)
		if header != "" {
			req.Header.Set("Last-Event-ID", header)
		}
		if err := api.ServeSSE(httptest.NewRecorder(), req, f.subscribe, pointFrame, doneFrame); err != nil {
			t.Fatal(err)
		}
		if f.after != want {
			t.Errorf("Last-Event-ID %q: subscribed after %d, want %d", header, f.after, want)
		}
	}
}

// flushFailWriter is a ResponseWriter whose every flush fails, like a
// client that went away while writes still land in the kernel buffer.
type flushFailWriter struct {
	httptest.ResponseRecorder
	writes, flushes int
}

func (w *flushFailWriter) Write(p []byte) (int, error) { w.writes++; return len(p), nil }
func (w *flushFailWriter) Flush()                      {}
func (w *flushFailWriter) FlushError() error {
	w.flushes++
	return errors.New("client gone")
}

// TestServeSSEStopsOnFlushError pins that the first failed flush ends
// the stream: no later replayed event and no terminal frame is written.
func TestServeSSEStopsOnFlushError(t *testing.T) {
	f := &feed[sweep.PointEvent]{past: make([]sweep.PointEvent, 3)}
	for i := range f.past {
		f.past[i].Seq = i
	}
	w := &flushFailWriter{ResponseRecorder: *httptest.NewRecorder()}
	final := func() api.Frame { t.Error("terminal frame written after a failed flush"); return api.Frame{} }
	if err := api.ServeSSE(w, httptest.NewRequest(http.MethodGet, "/", nil), f.subscribe, pointFrame, final); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 || w.flushes != 1 || !f.cancelled {
		t.Errorf("writes %d, flushes %d, cancelled %v; want 1, 1, true", w.writes, w.flushes, f.cancelled)
	}
}

// noFlushWriter is a ResponseWriter that cannot stream.
type noFlushWriter struct{ rec *httptest.ResponseRecorder }

func (w noFlushWriter) Header() http.Header         { return w.rec.Header() }
func (w noFlushWriter) Write(p []byte) (int, error) { return w.rec.Write(p) }
func (w noFlushWriter) WriteHeader(code int)        { w.rec.WriteHeader(code) }

// TestServeSSENoFlusherAnswersEnvelope pins that a connection that
// cannot stream gets the /v1 JSON error envelope, not plain text, and
// that nothing is subscribed.
func TestServeSSENoFlusherAnswersEnvelope(t *testing.T) {
	f := &feed[sweep.PointEvent]{after: -2}
	rec := httptest.NewRecorder()
	if err := api.ServeSSE(noFlushWriter{rec}, httptest.NewRequest(http.MethodGet, "/", nil), f.subscribe, pointFrame, doneFrame); err != nil {
		t.Fatal(err)
	}
	want := "{\n  \"error\": {\n    \"code\": \"internal\",\n    \"message\": \"streaming unsupported by this connection\"\n  }\n}\n"
	if rec.Code != http.StatusInternalServerError || rec.Header().Get("Content-Type") != "application/json" || rec.Body.String() != want {
		t.Errorf("HTTP %d %q body %q", rec.Code, rec.Header().Get("Content-Type"), rec.Body.String())
	}
	if f.after != -2 {
		t.Error("subscribed on a connection that cannot stream")
	}
}

// TestSSERoundTrip reads the writer's output back through ReadSSE,
// with keep-alive comment lines interleaved, and gets every frame back.
func TestSSERoundTrip(t *testing.T) {
	f := &feed[sweep.PointEvent]{
		past: []sweep.PointEvent{{Seq: 0, Point: 1, N: 2, OK: []int{1}, DonePoints: 1, Points: 2}},
		live: []sweep.PointEvent{{Seq: 1, Point: 0, N: 2, OK: []int{2}, DonePoints: 2, Points: 2}},
	}
	rec := httptest.NewRecorder()
	if err := api.ServeSSE(rec, httptest.NewRequest(http.MethodGet, "/", nil), f.subscribe, pointFrame, doneFrame); err != nil {
		t.Fatal(err)
	}
	body := ": hello\n" + strings.ReplaceAll(rec.Body.String(), "\n\n", "\n: keep-alive\n\n")
	var got []api.Event
	if err := api.ReadSSE(strings.NewReader(body), func(ev api.Event) bool { got = append(got, ev); return true }); err != nil {
		t.Fatal(err)
	}
	want := []api.Event{
		{ID: "0", Event: "point", Data: `{"seq":0,"point":1,"n":2,"ok":[1],"done_points":1,"points":2}`},
		{ID: "1", Event: "point", Data: `{"seq":1,"point":0,"n":2,"ok":[2],"done_points":2,"points":2}`},
		{Event: "done", Data: `{"state":"done"}`},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("read back %+v\nwant %+v", got, want)
	}

	// fn returning false stops the read at that frame.
	n := 0
	if err := api.ReadSSE(strings.NewReader(body), func(api.Event) bool { n++; return false }); err != nil || n != 1 {
		t.Errorf("stopped read: %d frames, err %v", n, err)
	}
}
