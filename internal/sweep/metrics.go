package sweep

import (
	"repro/internal/obs"
)

// Engine-level sweep metrics. Job transitions are guarded by
// JobLog.Finish, which settles a job exactly once, so the running gauge
// is decremented exactly once per job however it ends.
var (
	jobsSubmitted = obs.NewCounter("cpr_sweep_jobs_total", "Sweep jobs by terminal state (submitted counts admissions).",
		obs.Label{Name: "state", Value: "submitted"})
	jobsDone = obs.NewCounter("cpr_sweep_jobs_total", "Sweep jobs by terminal state (submitted counts admissions).",
		obs.Label{Name: "state", Value: "done"})
	jobsFailed = obs.NewCounter("cpr_sweep_jobs_total", "Sweep jobs by terminal state (submitted counts admissions).",
		obs.Label{Name: "state", Value: "failed"})
	jobsRunning = obs.NewGauge("cpr_sweep_jobs_running", "Sweep jobs currently running in this engine.")
	pointsDone  = obs.NewCounter("cpr_sweep_points_done_total", "Sweep points completed (all shards merged).")
)
