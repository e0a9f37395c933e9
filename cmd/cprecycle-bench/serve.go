package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/api"
	"repro/internal/experiments"
	"repro/internal/sweep"
	"repro/internal/sweep/dist"
	"repro/internal/sweep/history"
	"repro/internal/sweep/store"
)

// The client-facing HTTP API is identical in both serve modes — a local
// engine (-serve) and a distributed coordinator (-coordinator) — so it is
// built once over this pair of interfaces, which sweep.Job and dist.Job
// both satisfy.

// serveJob is one job as the HTTP layer sees it.
type serveJob interface {
	Progress() sweep.Progress
	Subscribe(after int) (past []sweep.PointEvent, ch <-chan sweep.PointEvent, cancel func())
	Done() <-chan struct{}
	Wait(ctx context.Context) (*sweep.Result, error)
}

// serveBackend is the job store behind the API.
type serveBackend interface {
	SubmitSpec(spec sweep.Spec) (serveJob, error)
	LookupJob(id string) (serveJob, bool)
	ListJobs() []serveJob
	RemoveJob(id string) bool
	Status() statusSnapshot
}

// engineBackend adapts the in-process sweep engine. hist, when the
// server has a store, records every accepted submission in the results
// history index.
type engineBackend struct {
	eng  *sweep.Engine
	hist *history.Index
}

func (b engineBackend) SubmitSpec(spec sweep.Spec) (serveJob, error) {
	// Jobs outlive the submitting request: they are cancelled via DELETE,
	// not by the connection closing.
	j, err := asJob(b.eng.Submit(context.Background(), spec))
	if err == nil {
		size, seed := b.eng.PoolIdentity()
		recordHistory(b.hist, spec, size, seed)
	}
	return j, err
}
func (b engineBackend) LookupJob(id string) (serveJob, bool) {
	j := b.eng.Job(id)
	return j, j != nil
}
func (b engineBackend) ListJobs() []serveJob {
	jobs := b.eng.Jobs()
	out := make([]serveJob, len(jobs))
	for i, j := range jobs {
		out[i] = j
	}
	return out
}
func (b engineBackend) RemoveJob(id string) bool { return b.eng.Remove(id) }
func (b engineBackend) Status() statusSnapshot   { return newStatus("engine", b.ListJobs()) }

// coordBackend adapts the distributed coordinator.
type coordBackend struct {
	c    *dist.Coordinator
	hist *history.Index
}

func (b coordBackend) SubmitSpec(spec sweep.Spec) (serveJob, error) {
	j, err := asJob(b.c.Submit(spec))
	if err == nil {
		size, seed := b.c.PoolIdentity()
		recordHistory(b.hist, spec, size, seed)
	}
	return j, err
}
func (b coordBackend) LookupJob(id string) (serveJob, bool) {
	j := b.c.Job(id)
	return j, j != nil
}
func (b coordBackend) ListJobs() []serveJob {
	jobs := b.c.Jobs()
	out := make([]serveJob, len(jobs))
	for i, j := range jobs {
		out[i] = j
	}
	return out
}
func (b coordBackend) RemoveJob(id string) bool { return b.c.Remove(id) }
func (b coordBackend) Status() statusSnapshot {
	s := newStatus("coordinator", b.ListJobs())
	fs := b.c.Stats()
	s.Fleet = &fs
	s.Workers = b.c.WorkerInfos()
	return s
}

// asJob converts a concrete (job, err) pair to the interface without the
// classic non-nil-interface-around-nil-pointer trap.
func asJob[J serveJob](j J, err error) (serveJob, error) {
	if err != nil {
		return nil, err
	}
	return j, nil
}

// recordHistory notes an accepted submission in the results-history
// index, when the server has one. Recording failures are logged, never
// surfaced: history is an observability sidecar, not part of the submit
// contract.
func recordHistory(hist *history.Index, spec sweep.Spec, poolSize int, poolSeed int64) {
	if hist == nil {
		return
	}
	if _, err := hist.Record(spec, poolSize, poolSeed, time.Now()); err != nil {
		lg.Warn("recording sweep history", "err", err)
	}
}

// writeJSON writes one JSON response via the shared api helpers;
// encoding errors (the client went away mid-body, a marshalling bug) are
// logged, not dropped.
func writeJSON(w http.ResponseWriter, status int, v any) {
	if err := api.WriteJSON(w, status, v); err != nil {
		lg.Warn("writing response", "err", err)
	}
}

// writeErr answers with the shared /v1 error envelope
// ({"error":{"code","message"}}).
func writeErr(w http.ResponseWriter, status int, err error) {
	api.Error(w, status, err)
}

// apiMux builds the client API over a backend. hist, when non-nil,
// mounts the read-only GET /v1/history/* query surface (history.Handler)
// alongside the jobs API. Extra metric collectors (e.g. a coordinator's
// fleet gauges) are appended to /metrics.
func apiMux(b serveBackend, hist http.Handler, extras ...func(io.Writer)) *http.ServeMux {
	mux := http.NewServeMux()

	obsRoutes(mux, b.Status, extras...)

	if hist != nil {
		mux.Handle("/v1/history/", hist)
	}

	mux.HandleFunc("GET /v1/experiments", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, experiments.SweepExperiments())
	})

	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec sweep.Spec
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad spec: %w", err))
			return
		}
		// Durability is server-side only: the store directory is named by
		// the -store flag, never by the spec, so remote clients hold no
		// path-write primitive. (The old "checkpoint" spec field is gone;
		// DisallowUnknownFields above now 400s any spec still sending it.)
		job, err := b.SubmitSpec(spec)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusAccepted, job.Progress())
	})

	// Newest-submitted first, limit/cursor paginated: a long-running
	// service's job table can be large, and the recent jobs are the ones
	// dashboards ask for.
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		p, err := api.ParsePage(r, 100, 1000)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		jobs := b.ListJobs() // submission order
		out := make([]sweep.Progress, 0, len(jobs))
		for i := len(jobs) - 1; i >= 0; i-- {
			out = append(out, jobs[i].Progress())
		}
		writeJSON(w, http.StatusOK, api.Paginate(out, p))
	})

	jobFor := func(w http.ResponseWriter, r *http.Request) (serveJob, bool) {
		j, ok := b.LookupJob(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
		}
		return j, ok
	}

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if j, ok := jobFor(w, r); ok {
			writeJSON(w, http.StatusOK, j.Progress())
		}
	})

	mux.HandleFunc("GET /v1/jobs/{id}/table", func(w http.ResponseWriter, r *http.Request) {
		j, ok := jobFor(w, r)
		if !ok {
			return
		}
		p := j.Progress()
		switch p.State {
		case "running":
			writeJSON(w, http.StatusAccepted, p)
		case "failed":
			writeErr(w, http.StatusInternalServerError, fmt.Errorf("%s", p.Error))
		default:
			res, err := j.Wait(r.Context())
			if err != nil {
				writeErr(w, http.StatusInternalServerError, err)
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			if _, err := fmt.Fprint(w, res.Table.Render()); err != nil {
				lg.Warn("writing table", "err", err)
			}
		}
	})

	// SSE stream: every completed point so far is replayed, then each
	// subsequent completion arrives as it lands, then a final terminal
	// event reports the job's outcome and the stream closes. Each point
	// event carries its sequence number as the SSE event id, and a
	// reconnecting consumer that presents the standard Last-Event-ID
	// header resumes mid-stream: points with seq <= Last-Event-ID are
	// not replayed. Schema:
	//
	//	id: 0
	//	event: point
	//	data: {"seq":0,"point":3,"n":2000,"ok":[1523,1892],"done_points":1,"points":30}
	//
	//	event: done
	//	data: {…sweep.Progress, "state":"done"|"failed"…}
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		j, ok := jobFor(w, r)
		if !ok {
			return
		}
		err := api.ServeSSE(w, r, j.Subscribe, func(ev sweep.PointEvent) api.Frame {
			return api.Frame{ID: strconv.Itoa(ev.Seq), Event: "point", Data: ev}
		}, func() api.Frame {
			// The live channel closed: the job settled (done or failed).
			return api.Frame{Event: "done", Data: j.Progress()}
		})
		if err != nil {
			lg.Warn("streaming job events", "err", err)
		}
	})

	// DELETE is cancel for running jobs and purge for finished ones, and
	// the two are kept distinct: cancelling a running job is always
	// allowed (it stops work), but a terminal job is a recorded result
	// and removing it must be an explicit ?purge=1 opt-in — without it
	// the request answers 409 so an automated cancel sweeping a job
	// table never silently discards finished results.
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := jobFor(w, r)
		if !ok {
			return
		}
		p := j.Progress()
		if p.State != "running" && r.URL.Query().Get("purge") != "1" {
			api.ErrorCode(w, http.StatusConflict, "conflict", fmt.Sprintf(
				"job %s is %s: DELETE cancels running jobs; add ?purge=1 to remove a finished one", p.ID, p.State))
			return
		}
		b.RemoveJob(p.ID)
		writeJSON(w, http.StatusOK, j.Progress())
	})

	return mux
}

func listen(addr string, h http.Handler, what string) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
	}
	fmt.Printf("%s listening on %s\n", what, addr)
	return srv.ListenAndServe()
}

// historyHandler builds the /v1/history surface when both halves exist;
// a store-less server simply has no history to serve.
func historyHandler(hist *history.Index, st *store.Store) http.Handler {
	if hist == nil || st == nil {
		return nil
	}
	return history.Handler(hist, st)
}

// runServe exposes an in-process sweep engine over the client API. hist
// (nil without -store) adds the results-history query surface.
func runServe(addr, token string, eng *sweep.Engine, hist *history.Index, st *store.Store) error {
	h := apiMux(engineBackend{eng: eng, hist: hist}, historyHandler(hist, st))
	return listen(addr, api.BearerAuth(token, h), "sweep engine")
}

// runCoordinator exposes a distributed coordinator: the client API plus
// the /v1/dist/ worker tier. The client API is join-secret-guarded as a
// whole; the worker tier runs its own two-tier auth (join secret on
// registration and admin/fleet endpoints, per-worker minted tokens on
// the long-polling data plane) so it must NOT sit behind BearerAuth.
func runCoordinator(addr, token string, c *dist.Coordinator, hist *history.Index) error {
	root := http.NewServeMux()
	root.Handle("/v1/dist/", c.Handler())
	h := apiMux(coordBackend{c: c, hist: hist}, historyHandler(hist, c.Store()), c.WritePrometheus)
	root.Handle("/", api.BearerAuth(token, h))
	return listen(addr, root, "sweep coordinator")
}
