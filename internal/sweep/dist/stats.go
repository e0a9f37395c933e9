package dist

import (
	"io"
	"math"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// FleetStats is one aggregated snapshot of a coordinator's fleet state,
// computed at read time from the registries the coordinator already
// maintains (no sampling loop). Served under /v1/status and rendered as
// cpr_dist_* Prometheus series by WritePrometheus.
type FleetStats struct {
	WorkersActive   int     `json:"workers_active"`
	WorkersDraining int     `json:"workers_draining"`
	LeasesInflight  int     `json:"leases_inflight"`
	QueueDepth      int     `json:"queue_depth"` // unleased incomplete points across running jobs
	JobsRunning     int     `json:"jobs_running"`
	JobsDone        int     `json:"jobs_done"`
	JobsFailed      int     `json:"jobs_failed"`
	LeaseEstSeconds float64 `json:"lease_est_seconds"` // max per-point EWMA across running jobs
	LeasesGranted   int64   `json:"leases_granted"`
	LeaseExpiries   int64   `json:"lease_expiries"` // expired + dropped leases
	RequeuedPoints  int64   `json:"requeued_points"`
	Revocations     int64   `json:"revocations"`
	FleetEvents     int     `json:"fleet_events"`    // total emitted this life
	SSESubscribers  int     `json:"sse_subscribers"` // live fleet-stream subscribers
	SSEDropped      int64   `json:"sse_dropped"`     // subscribers dropped for falling behind
	// OldestProgressSec is the progress age of the stalest live lease:
	// seconds since it last advanced its heartbeat packet count (0 with no
	// live leases). A value that keeps growing while heartbeats keep
	// landing is the wedged-worker signature the stuck-lease detector
	// exists for.
	OldestProgressSec float64 `json:"oldest_progress_sec"`
	// HeartbeatSec/LongPollSec/TTLSec echo the pacing the coordinator
	// advertises at registration, so stream consumers (the supervisor's
	// stuck thresholds, dashboards) can calibrate against the fleet's
	// actual cadence instead of guessing.
	HeartbeatSec float64 `json:"heartbeat_sec"`
	LongPollSec  float64 `json:"long_poll_sec"`
	TTLSec       float64 `json:"ttl_sec"`
}

// Stats assembles a FleetStats snapshot. Each job and registry lock is
// taken briefly in the sanctioned order (j.mu alone, then wmu alone,
// then fmu alone); the snapshot is consistent per subsystem, not
// globally atomic — fine for telemetry.
func (c *Coordinator) Stats() FleetStats {
	s := FleetStats{
		LeasesGranted:  c.leasesGranted.Load(),
		LeaseExpiries:  c.leaseExpiries.Load(),
		RequeuedPoints: c.requeuedPts.Load(),
		Revocations:    c.revocations.Load(),
		SSEDropped:     c.sseDropped.Load(),
		HeartbeatSec:   c.cfg.Heartbeat.Seconds(),
		LongPollSec:    c.cfg.LongPoll.Seconds(),
		TTLSec:         c.cfg.LeaseTTL.Seconds(),
	}
	now := time.Now()
	for _, j := range c.Jobs() {
		var p sweep.Progress
		j.mu.Lock()
		j.Outcome(&p)
		switch p.State {
		case "running":
			s.JobsRunning++
			s.LeasesInflight += len(j.leases)
			s.QueueDepth += len(j.pending)
			if j.estPerPoint > s.LeaseEstSeconds {
				s.LeaseEstSeconds = j.estPerPoint
			}
			for _, l := range j.leases {
				if age := now.Sub(l.progress).Seconds(); age > s.OldestProgressSec {
					s.OldestProgressSec = age
				}
			}
		case "failed":
			s.JobsFailed++
		default:
			s.JobsDone++
		}
		j.mu.Unlock()
	}
	c.wmu.Lock()
	for _, ws := range c.workers {
		switch ws.state {
		case workerActive:
			s.WorkersActive++
		case workerDraining:
			s.WorkersDraining++
		}
	}
	c.wmu.Unlock()
	c.fmu.Lock()
	s.FleetEvents = c.fleetSeq
	s.SSESubscribers = len(c.fleetSubs)
	c.fmu.Unlock()
	return s
}

// WritePrometheus renders the fleet snapshot as cpr_dist_* series in
// Prometheus text format. Instance-scoped (not in the obs.Default
// registry) so tests and embedders may run many coordinators per
// process; serve mode appends it to the /metrics response.
func (c *Coordinator) WritePrometheus(w io.Writer) {
	s := c.Stats()
	obs.WriteHeader(w, "cpr_dist_workers", "gauge", "Registered workers by lifecycle state.")
	obs.WriteSample(w, "cpr_dist_workers", float64(s.WorkersActive), obs.Label{Name: "state", Value: "active"})
	obs.WriteSample(w, "cpr_dist_workers", float64(s.WorkersDraining), obs.Label{Name: "state", Value: "draining"})
	obs.WriteHeader(w, "cpr_dist_jobs", "gauge", "Coordinator jobs by state.")
	obs.WriteSample(w, "cpr_dist_jobs", float64(s.JobsRunning), obs.Label{Name: "state", Value: "running"})
	obs.WriteSample(w, "cpr_dist_jobs", float64(s.JobsDone), obs.Label{Name: "state", Value: "done"})
	obs.WriteSample(w, "cpr_dist_jobs", float64(s.JobsFailed), obs.Label{Name: "state", Value: "failed"})
	obs.WriteHeader(w, "cpr_dist_leases_inflight", "gauge", "Live leases across running jobs.")
	obs.WriteSample(w, "cpr_dist_leases_inflight", float64(s.LeasesInflight))
	obs.WriteHeader(w, "cpr_dist_queue_depth", "gauge", "Unleased incomplete points across running jobs.")
	obs.WriteSample(w, "cpr_dist_queue_depth", float64(s.QueueDepth))
	obs.WriteHeader(w, "cpr_dist_lease_est_seconds", "gauge", "Adaptive lease sizing estimate: max per-point EWMA seconds across running jobs.")
	obs.WriteSample(w, "cpr_dist_lease_est_seconds", s.LeaseEstSeconds)
	obs.WriteHeader(w, "cpr_dist_leases_granted_total", "counter", "Leases granted this coordinator life.")
	obs.WriteSample(w, "cpr_dist_leases_granted_total", float64(s.LeasesGranted))
	obs.WriteHeader(w, "cpr_dist_lease_expiries_total", "counter", "Leases expired or dropped and re-queued.")
	obs.WriteSample(w, "cpr_dist_lease_expiries_total", float64(s.LeaseExpiries))
	obs.WriteHeader(w, "cpr_dist_requeued_points_total", "counter", "Points returned to the pending queue by lease expiry/drop.")
	obs.WriteSample(w, "cpr_dist_requeued_points_total", float64(s.RequeuedPoints))
	obs.WriteHeader(w, "cpr_dist_revocations_total", "counter", "Worker tokens revoked.")
	obs.WriteSample(w, "cpr_dist_revocations_total", float64(s.Revocations))
	obs.WriteHeader(w, "cpr_dist_fleet_events_total", "counter", "Fleet events emitted this coordinator life.")
	obs.WriteSample(w, "cpr_dist_fleet_events_total", float64(s.FleetEvents))
	obs.WriteHeader(w, "cpr_dist_fleet_subscribers", "gauge", "Live fleet event-stream subscribers.")
	obs.WriteSample(w, "cpr_dist_fleet_subscribers", float64(s.SSESubscribers))
	obs.WriteHeader(w, "cpr_dist_fleet_dropped_total", "counter", "Fleet subscribers dropped for falling behind.")
	obs.WriteSample(w, "cpr_dist_fleet_dropped_total", float64(s.SSEDropped))
	obs.WriteHeader(w, "cpr_dist_oldest_progress_seconds", "gauge", "Progress age of the stalest live lease (0 with none).")
	obs.WriteSample(w, "cpr_dist_oldest_progress_seconds", s.OldestProgressSec)
}

// WorkerStats is a worker's own operational counters plus its current
// lease, served by the worker's -obs endpoint (GET /v1/status) alongside
// the engine metrics — the same one-call snapshot shape the other roles
// expose, so the supervisor and humans probe every role uniformly.
type WorkerStats struct {
	Name            string `json:"name"`
	Worker          string `json:"worker,omitempty"` // coordinator-assigned id
	Draining        bool   `json:"draining"`
	Leases          int64  `json:"leases"`
	Polls           int64  `json:"polls"`
	Retries         int64  `json:"retries"`
	Reregistrations int64  `json:"reregistrations"`
	Results         int64  `json:"results"`
	// Lease/LeaseJob name the lease currently executing (empty when the
	// worker is idle or parked on a long-poll).
	Lease    string `json:"lease,omitempty"`
	LeaseJob string `json:"lease_job,omitempty"`
	// CPUCores is the most recent process CPU rate sample in cores
	// (0 until the -cpu-budget watchdog has taken two samples).
	CPUCores float64 `json:"cpu_cores,omitempty"`
}

// Stats snapshots the worker's counters.
func (w *Worker) Stats() WorkerStats {
	s := WorkerStats{
		Name:            w.cfg.ID,
		Worker:          w.WorkerID(),
		Draining:        w.drain.Load(),
		Leases:          w.leases.Load(),
		Polls:           w.polls.Load(),
		Retries:         w.retries.Load(),
		Reregistrations: w.reregs.Load(),
		Results:         w.results.Load(),
		CPUCores:        math.Float64frombits(w.cpuRate.Load()),
	}
	if cur, ok := w.curLease.Load().(curLease); ok {
		s.Lease, s.LeaseJob = cur.lease, cur.job
	}
	return s
}

// WritePrometheus renders the worker's counters as cpr_dist_worker_*
// series. Instance-scoped for the same reason as the coordinator's.
func (w *Worker) WritePrometheus(out io.Writer) {
	s := w.Stats()
	obs.WriteHeader(out, "cpr_dist_worker_leases_total", "counter", "Leases granted to this worker.")
	obs.WriteSample(out, "cpr_dist_worker_leases_total", float64(s.Leases))
	obs.WriteHeader(out, "cpr_dist_worker_polls_total", "counter", "Lease requests issued (long-polls).")
	obs.WriteSample(out, "cpr_dist_worker_polls_total", float64(s.Polls))
	obs.WriteHeader(out, "cpr_dist_worker_retries_total", "counter", "Backoff sleeps taken after failed coordinator calls.")
	obs.WriteSample(out, "cpr_dist_worker_retries_total", float64(s.Retries))
	obs.WriteHeader(out, "cpr_dist_worker_reregistrations_total", "counter", "Transparent re-registrations after a 401.")
	obs.WriteSample(out, "cpr_dist_worker_reregistrations_total", float64(s.Reregistrations))
	obs.WriteHeader(out, "cpr_dist_worker_results_total", "counter", "Lease results delivered to the coordinator.")
	obs.WriteSample(out, "cpr_dist_worker_results_total", float64(s.Results))
	obs.WriteHeader(out, "cpr_dist_worker_draining", "gauge", "1 when a drain has been requested.")
	v := 0.0
	if s.Draining {
		v = 1
	}
	obs.WriteSample(out, "cpr_dist_worker_draining", v)
	obs.WriteHeader(out, "cpr_dist_worker_lease_inflight", "gauge", "1 while a lease is executing locally.")
	inflight := 0.0
	if s.Lease != "" {
		inflight = 1
	}
	obs.WriteSample(out, "cpr_dist_worker_lease_inflight", inflight)
	obs.WriteHeader(out, "cpr_dist_worker_cpu_cores", "gauge", "Most recent process CPU rate sample (cores; 0 until sampled).")
	obs.WriteSample(out, "cpr_dist_worker_cpu_cores", s.CPUCores)
}
