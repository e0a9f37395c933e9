package main

import (
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/sweep/dist"
)

// processStart anchors the uptime reported by /v1/status.
var processStart = time.Now()

// runtimeStats is the process-level slice of a status snapshot.
type runtimeStats struct {
	GoVersion      string `json:"go_version"`
	Goroutines     int    `json:"goroutines"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	NumCPU         int    `json:"num_cpu"`
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	HeapSysBytes   uint64 `json:"heap_sys_bytes"`
	NumGC          uint32 `json:"num_gc"`
}

// jobsSummary aggregates the backend's job table.
type jobsSummary struct {
	Running int              `json:"running"`
	Done    int              `json:"done"`
	Failed  int              `json:"failed"`
	Jobs    []sweep.Progress `json:"jobs,omitempty"`
}

// statusSnapshot is the one-call dashboard served at GET /v1/status:
// engine + fleet + runtime state plus a flat dump of every registered
// metric, so `cprecycle-bench -fleet` (or curl | jq) sees the whole
// process in one read.
type statusSnapshot struct {
	Mode      string             `json:"mode"` // "engine" | "coordinator" | "worker"
	UptimeSec float64            `json:"uptime_sec"`
	Runtime   runtimeStats       `json:"runtime"`
	Jobs      jobsSummary        `json:"jobs"`
	Fleet     *dist.FleetStats   `json:"fleet,omitempty"`
	Workers   []dist.WorkerInfo  `json:"workers,omitempty"`
	Worker    *dist.WorkerStats  `json:"worker,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

func runtimeSnapshot() runtimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeStats{
		GoVersion:      runtime.Version(),
		Goroutines:     runtime.NumGoroutine(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
		HeapAllocBytes: ms.HeapAlloc,
		HeapSysBytes:   ms.HeapSys,
		NumGC:          ms.NumGC,
	}
}

// newStatus assembles the parts every mode shares.
func newStatus(mode string, jobs []serveJob) statusSnapshot {
	s := statusSnapshot{
		Mode:      mode,
		UptimeSec: time.Since(processStart).Seconds(),
		Runtime:   runtimeSnapshot(),
		Metrics:   obs.Snapshot(),
	}
	for _, j := range jobs {
		p := j.Progress()
		switch p.State {
		case "running":
			s.Jobs.Running++
		case "failed":
			s.Jobs.Failed++
		default:
			s.Jobs.Done++
		}
		s.Jobs.Jobs = append(s.Jobs.Jobs, p)
	}
	return s
}

// obsRoutes mounts the observability surface — GET /metrics (the obs
// registry plus any instance-scoped extras), /debug/pprof/* and GET
// /v1/status — onto a mux that is already behind bearer auth; pprof in
// particular must never be mounted on an unauthenticated mux (heap and
// CPU profiles leak source paths and timing).
func obsRoutes(mux *http.ServeMux, status func() statusSnapshot, extras ...func(io.Writer)) {
	mux.Handle("GET /metrics", obs.Handler(extras...))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if status != nil {
		mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, status())
		})
	}
}

// workerObsHandler is the worker's -obs side server: metrics (engine
// hot-path series plus the worker's own lease/retry counters), pprof
// and a worker-mode status snapshot.
func workerObsHandler(w *dist.Worker) http.Handler {
	mux := http.NewServeMux()
	obsRoutes(mux, func() statusSnapshot {
		s := newStatus("worker", nil)
		ws := w.Stats()
		s.Worker = &ws
		return s
	}, w.WritePrometheus)
	return mux
}
