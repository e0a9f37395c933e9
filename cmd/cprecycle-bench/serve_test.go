package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/sweep"
	"repro/internal/sweep/dist"
)

// TestServeAPI exercises the client API over the in-process engine
// backend: bearer auth, job submission, the SSE stream (every point then
// a terminal event), the rendered table, and the rejection of specs
// that try to smuggle server-side paths.
func TestServeAPI(t *testing.T) {
	eng := sweep.New(sweep.Config{Workers: 2, ShardPackets: 2})
	defer eng.Close()
	srv := httptest.NewServer(api.BearerAuth("tok", apiMux(engineBackend{eng: eng}, nil)))
	defer srv.Close()

	get := func(path, token string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	if resp := get("/v1/jobs", ""); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless list: HTTP %d, want 401", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	post := func(body string) (*http.Response, error) {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer tok")
		req.Header.Set("Content-Type", "application/json")
		return http.DefaultClient.Do(req)
	}

	// Server-side paths must be refused over the network: the legacy
	// "checkpoint" spec field no longer exists, so a client still sending
	// one trips DisallowUnknownFields and gets a 400.
	resp, err := post(`{"experiment":"fig8","packets":2,"psdu_bytes":60,"checkpoint":"/etc/pwned"}`)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("path-smuggling spec: HTTP %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err = post(`{"experiment":"fig8","packets":3,"psdu_bytes":60,"seed":3,"axis":[-10,-20]}`)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d, want 202", resp.StatusCode)
	}
	var prog sweep.Progress
	if err := json.NewDecoder(resp.Body).Decode(&prog); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if prog.Points != 6 {
		t.Fatalf("submitted job plans %d points, want 6", prog.Points)
	}

	// The SSE stream must deliver one point event per point and then the
	// terminal event, regardless of when the consumer connects.
	resp = get("/v1/jobs/"+prog.ID+"/events", "tok")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type %q", ct)
	}
	var points, dones int
	var final sweep.Progress
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			switch event {
			case "point":
				points++
			case "done":
				dones++
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &final); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if points != 6 || dones != 1 {
		t.Fatalf("stream delivered %d point events and %d terminal events, want 6 and 1", points, dones)
	}
	if final.State != "done" || final.DonePoints != 6 {
		t.Fatalf("terminal event %+v", final)
	}

	resp = get("/v1/jobs/"+prog.ID+"/table", "tok")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("table: HTTP %d", resp.StatusCode)
	}
	var table strings.Builder
	sc2 := bufio.NewScanner(resp.Body)
	for sc2.Scan() {
		table.WriteString(sc2.Text())
		table.WriteByte('\n')
	}
	if !strings.HasPrefix(table.String(), "== Fig 8") {
		t.Fatalf("table output starts %q", strings.SplitN(table.String(), "\n", 2)[0])
	}
}

// TestServeSSELastEventID pins the SSE resume contract: every point event
// carries its seq as the event id, and a reconnect presenting
// Last-Event-ID receives only the points after it (plus the terminal
// event) instead of the full per-point replay. A malformed id falls back
// to full replay.
func TestServeSSELastEventID(t *testing.T) {
	eng := sweep.New(sweep.Config{Workers: 2, ShardPackets: 2})
	defer eng.Close()
	srv := httptest.NewServer(apiMux(engineBackend{eng: eng}, nil))
	defer srv.Close()

	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs",
		strings.NewReader(`{"experiment":"fig8","packets":3,"psdu_bytes":60,"seed":3,"axis":[-10,-20]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var prog sweep.Progress
	if err := json.NewDecoder(resp.Body).Decode(&prog); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// stream connects with the given Last-Event-ID header and returns the
	// ids of the point events received plus the number of terminal events.
	stream := func(lastID string) (ids []string, dones int) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs/"+prog.ID+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		if lastID != "" {
			req.Header.Set("Last-Event-ID", lastID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("events: HTTP %d", resp.StatusCode)
		}
		sc := bufio.NewScanner(resp.Body)
		event, id := "", ""
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "id: "):
				id = strings.TrimPrefix(line, "id: ")
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				switch event {
				case "point":
					ids = append(ids, id)
				case "done":
					dones++
				}
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		return ids, dones
	}

	// First consumer: full replay, ids 0..5 in order.
	ids, dones := stream("")
	if len(ids) != 6 || dones != 1 {
		t.Fatalf("full stream: %d point events (%v), %d terminal", len(ids), ids, dones)
	}
	for i, id := range ids {
		if id != strconv.Itoa(i) {
			t.Fatalf("event %d carried id %q", i, id)
		}
	}

	// Reconnect mid-stream: only the points after Last-Event-ID replay.
	ids, dones = stream("3")
	if len(ids) != 2 || ids[0] != "4" || ids[1] != "5" || dones != 1 {
		t.Fatalf("resume after 3: ids %v, %d terminal", ids, dones)
	}

	// Reconnect at the end: no replay, just the terminal event.
	ids, dones = stream("5")
	if len(ids) != 0 || dones != 1 {
		t.Fatalf("resume after 5: ids %v, %d terminal", ids, dones)
	}

	// A malformed id is ignored: full replay.
	ids, _ = stream("not-a-number")
	if len(ids) != 6 {
		t.Fatalf("malformed Last-Event-ID: %d point events", len(ids))
	}
}

// TestServeMetricsAndStatus checks the observability surface of the
// engine backend: /metrics serves valid-looking Prometheus text with
// the engine families present, and /v1/status returns a coherent
// snapshot after a job has run.
func TestServeMetricsAndStatus(t *testing.T) {
	eng := sweep.New(sweep.Config{Workers: 2, ShardPackets: 2})
	defer eng.Close()
	mux := apiMux(engineBackend{eng: eng}, nil)

	job, err := eng.Submit(context.Background(), sweep.Spec{
		Experiment: "fig8", Packets: 2, PSDUBytes: 60, Seed: 3, Axis: []float64{-10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE cpr_sweep_packets_total counter",
		"# TYPE cpr_sweep_stage_seconds histogram",
		`cpr_sweep_stage_seconds_bucket{le="+Inf",stage="decode"}`,
		"# TYPE cpr_sweep_jobs_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics body missing %q", want)
		}
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/status", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/status: HTTP %d", rec.Code)
	}
	var s statusSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	if s.Mode != "engine" {
		t.Errorf("status mode %q, want engine", s.Mode)
	}
	if s.Jobs.Done != 1 || s.Jobs.Running != 0 {
		t.Errorf("status jobs %+v, want 1 done", s.Jobs)
	}
	if s.Metrics["cpr_sweep_packets_total"] <= 0 {
		t.Errorf("status metrics cpr_sweep_packets_total = %v, want > 0", s.Metrics["cpr_sweep_packets_total"])
	}
	if s.Runtime.GoVersion == "" || s.UptimeSec <= 0 {
		t.Errorf("status runtime %+v uptime %v", s.Runtime, s.UptimeSec)
	}
}

// TestServeCoordinatorStatusHasFleet checks the coordinator backend's
// status snapshot carries the fleet section.
func TestServeCoordinatorStatusHasFleet(t *testing.T) {
	c, err := dist.New(dist.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := coordBackend{c: c}.Status()
	if s.Mode != "coordinator" {
		t.Errorf("status mode %q, want coordinator", s.Mode)
	}
	if s.Fleet == nil {
		t.Fatal("coordinator status has no fleet section")
	}
	if s.Fleet.WorkersActive != 0 || s.Fleet.JobsRunning != 0 {
		t.Errorf("idle coordinator fleet stats %+v", *s.Fleet)
	}
}

// sseFailFlushWriter implements http.ResponseWriter, http.Flusher and
// FlushError; every flush fails, simulating a disconnected SSE client
// whose writes still land in the kernel buffer.
type sseFailFlushWriter struct {
	hdr     http.Header
	code    int
	writes  int
	flushes int
}

func (w *sseFailFlushWriter) Header() http.Header {
	if w.hdr == nil {
		w.hdr = make(http.Header)
	}
	return w.hdr
}
func (w *sseFailFlushWriter) Write(p []byte) (int, error) { w.writes++; return len(p), nil }
func (w *sseFailFlushWriter) WriteHeader(code int)        { w.code = code }
func (w *sseFailFlushWriter) Flush()                      {}
func (w *sseFailFlushWriter) FlushError() error {
	w.flushes++
	return errors.New("client gone")
}

// TestServeSSEStopsOnFlushError pins the disconnect fix: when the
// client is gone (every flush fails), the job event stream ends at the
// first failed flush instead of replaying the remaining points — or
// worse, parking in the live-tail select until the next point lands.
func TestServeSSEStopsOnFlushError(t *testing.T) {
	eng := sweep.New(sweep.Config{Workers: 2, ShardPackets: 2})
	defer eng.Close()
	mux := apiMux(engineBackend{eng: eng}, nil)

	job, err := eng.Submit(context.Background(), sweep.Spec{
		Experiment: "fig8", Packets: 2, PSDUBytes: 60, Seed: 3, Axis: []float64{-10, -20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	w := &sseFailFlushWriter{}
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+job.Progress().ID+"/events", nil)
	mux.ServeHTTP(w, req)
	if w.flushes != 1 {
		t.Errorf("flush attempts = %d, want 1 (stream must end at the first failed flush)", w.flushes)
	}
	// One replayed point is one write (its whole id/event/data frame);
	// the second point must never be written.
	if w.writes != 1 {
		t.Errorf("event writes = %d, want 1 (the first point's frame only)", w.writes)
	}
}

// noFlushWriter is a ResponseWriter that cannot stream (no Flush).
type noFlushWriter struct{ rec *httptest.ResponseRecorder }

func (w noFlushWriter) Header() http.Header         { return w.rec.Header() }
func (w noFlushWriter) Write(p []byte) (int, error) { return w.rec.Write(p) }
func (w noFlushWriter) WriteHeader(code int)        { w.rec.WriteHeader(code) }

// TestSSENoFlusherAnswersEnvelope pins that both event streams — a job's
// points and the coordinator's fleet events — answer a connection that
// cannot stream with the /v1 JSON error envelope, not plain text.
func TestSSENoFlusherAnswersEnvelope(t *testing.T) {
	c, err := dist.New(dist.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	job, err := c.Submit(sweep.Spec{Experiment: "fig8", Packets: 2, PSDUBytes: 60, Axis: []float64{-10}})
	if err != nil {
		t.Fatal(err)
	}
	root := http.NewServeMux()
	root.Handle("/v1/dist/", c.Handler())
	root.Handle("/", apiMux(coordBackend{c: c}, nil))
	for _, path := range []string{"/v1/jobs/" + job.ID + "/events", "/v1/dist/events"} {
		rec := httptest.NewRecorder()
		root.ServeHTTP(noFlushWriter{rec}, httptest.NewRequest(http.MethodGet, path, nil))
		var body api.ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: body %q is not the error envelope: %v", path, rec.Body.String(), err)
		}
		if rec.Code != http.StatusInternalServerError || rec.Header().Get("Content-Type") != "application/json" ||
			body.Error.Code != "internal" || body.Error.Message != "streaming unsupported by this connection" {
			t.Errorf("%s: HTTP %d %q %+v", path, rec.Code, rec.Header().Get("Content-Type"), body)
		}
	}
}
