// Package dist is the distributed sweep tier: a coordinator that
// decomposes sweep.Specs into point-range leases and hands them to
// remote workers over HTTP, and a worker that wraps a local sweep.Engine
// and executes leases against it.
//
// # Determinism contract
//
// A coordinator plus any number of workers produces a byte-identical
// table to one direct in-process engine for the same spec and seed —
// including under transport faults, mid-sweep worker death, drain and
// revocation. The contract rests on three established properties: every
// packet derives its RNG from (point seed, packet index), so any
// executor of a point range tallies identically; pooled sweeps pin the
// waveform pool's (size, seed) identity, which the lease carries so
// every worker builds the same pool; and leases name plan points by
// index against the normalised spec, with a plan fingerprint
// (experiments.SweepPlan.Fingerprint) that both sides must agree on
// before any tallies merge — version skew between binaries is refused,
// not silently blended.
//
// # Registration and authentication
//
// A worker joins the fleet with POST /v1/dist/register, authenticating
// with the fleet's join secret (Config.Token, "Authorization: Bearer
// <secret>"; an empty secret leaves registration open for localhost
// experimentation). The coordinator assigns it an id ("w1", "w2", …)
// and mints a per-worker bearer token, and the response also advertises
// the fleet's heartbeat interval, long-poll bound and lease TTL so the
// whole fleet paces itself from one configuration. Every subsequent
// data-plane call (lease, heartbeat, result, deregister) authenticates
// with the per-worker token; token checks are constant-time. A 401
// means the token is unknown — typically a restarted coordinator whose
// registry died with it — and the worker re-registers and carries on. A
// 403 means the worker was revoked: it cancels any in-flight work and
// exits. Admin calls (worker list, drain, revoke, the fleet event
// stream) authenticate with the join secret.
//
// # Lease lifecycle
//
// A registered worker asks for work with POST /v1/dist/lease. The call
// long-polls: when no work is pending the coordinator parks the request
// (bounded by LeaseRequest.WaitSec, capped by Config.LongPoll) and
// wakes it the moment a job is submitted, points re-queue, or a lease
// expires — there is no fixed-interval idle polling anywhere in the
// tier. The response is a LeaseResponse: a Lease (a job id, the
// normalised spec, a contiguous range of plan point indexes, the plan
// fingerprint, the pool identity for pooled specs, and a TTL), a drain
// directive, or 204 when the deadline passed with no work.
//
// Lease size is adaptive: the coordinator keeps a per-job moving
// estimate of wall-clock seconds per point — fed by result timing and
// by heartbeat packet progress — and sizes each lease so it runs for
// roughly Config.LeaseTarget (default 4× the heartbeat interval),
// capped so one worker cannot starve the rest of the fleet of pending
// points. A job's first lease is a single point (a probe that seeds the
// estimate). Setting Config.LeasePoints > 0 pins the legacy fixed size
// instead.
//
// While running, the worker POSTs /v1/dist/heartbeat at the advertised
// interval; each accepted heartbeat re-arms the TTL deadline and
// reports packet-level progress. A lease whose deadline passes — worker
// crash, network partition, kill -9 — is reaped and its points return
// to the pending queue; a heartbeat arriving after re-issue is answered
// 410 Gone and the worker abandons the work. Results are idempotent: a
// point's tallies are deterministic, so whichever copy lands first wins
// and duplicates are ignored. A worker that hits a real execution error
// reports it in LeaseResult.Error; if its lease is still live the job
// fails — the error is deterministic and would recur on any worker —
// while an error from an already-expired lease is dropped.
//
// # Drain and revocation
//
// Graceful scale-down is a first-class path. A drain signal — POST
// /v1/dist/workers/{id}/drain from an admin, or SIGTERM delivered to
// the worker process — puts the worker into draining: it finishes its
// in-flight lease (the result is accepted normally), takes no new
// leases, POSTs /v1/dist/deregister and exits. Server-side drains reach
// the worker on its next heartbeat response (HeartbeatResponse.Drain)
// or long-poll response (LeaseResponse.Drain), so an idle worker drains
// immediately. Nothing in the drain path waits for a lease TTL.
//
// Revocation (POST /v1/dist/workers/{id}/revoke) is the abrupt cut: the
// worker's token is invalidated, its live leases are dropped and their
// points re-queued immediately, and any late result it sends is
// rejected at the auth layer (403) — the tallies never reach the merge.
//
// # Fault tolerance
//
// Every worker→coordinator call retries transient transport failures
// with capped, jittered exponential backoff (the HTTP client is
// injectable, which is how the chaos tests drive flaky and partitioned
// transports). Retries are safe by construction: leases are granted to
// the requester exactly once per granted id, heartbeats are idempotent,
// and results merge idempotently.
//
// # Durability
//
// With Config.StoreDir set, completed points land in a content-addressed
// binary result store (internal/sweep/store: bit-packed records, CRC32-C
// per record, fsynced atomic segment writes, torn-tail salvage) shared
// across jobs, and each job writes one small JSON manifest
// <dir>/<jobID>.json naming its normalised spec, point count and pool
// identity. A coordinator restarted over the same directory replays the
// manifests against the store index — an index read, not a log replay —
// and resumes every job at its first missing point; completed points are
// never recomputed. Because the store keys points by content (plan
// fingerprint + pool identity + point identity), repeated sweeps and
// cross-job duplicate points are served from the store instead of the
// fleet, late results from slow re-leased workers are accepted once and
// the redundant re-run is cancelled in flight (cpr_store_* counters
// track hits, misses, dedupes, late accepts and corrupt records).
// The worker registry is deliberately not persisted: workers re-register
// on the first 401 from the new coordinator life.
//
// # Observability
//
// Both sides log through log/slog (Config.Log / WorkerConfig.Log, nil
// discards) with component/job/worker/lease attributes on every event,
// and keep atomic operational counters that cost nothing to the
// protocol paths. Coordinator.Stats() aggregates the fleet view —
// workers by state, in-flight leases, queue depth, the adaptive lease
// estimate, grant/expiry/re-queue/revocation totals, fleet-stream
// subscriber and drop counts — and Coordinator.WritePrometheus renders
// it as cpr_dist_* series; Worker.Stats()/WritePrometheus do the same
// for a worker's lease/poll/retry/re-registration/result counters
// (cpr_dist_worker_*). Both are instance-scoped (not in the process
// registry) so many coordinators can coexist in one test binary;
// cmd/cprecycle-bench mounts them on its authenticated /metrics and
// /v1/status endpoints.
package dist

import (
	"context"
	"net/http"

	"repro/internal/api"
	"repro/internal/sweep"
)

// Wire types of the worker tier. All endpoints live under /v1/dist/ on
// the coordinator:
//
//	POST /v1/dist/register    RegisterRequest → 200 RegisterResponse   (join-secret auth)
//	POST /v1/dist/lease       LeaseRequest → 200 LeaseResponse, or 204 after WaitSec with no work
//	POST /v1/dist/result      LeaseResult  → 200 (idempotent)
//	POST /v1/dist/heartbeat   Heartbeat    → 200 HeartbeatResponse, or 410 when the lease was re-issued
//	POST /v1/dist/deregister  → 200 (live leases re-queued immediately)
//	GET  /v1/dist/workers     → 200 {"items":[WorkerInfo…],"next_cursor":…}, newest first (join-secret auth)
//	POST /v1/dist/workers/{id}/drain    → 200                          (join-secret auth)
//	POST /v1/dist/workers/{id}/revoke   → 200                          (join-secret auth)
//	GET  /v1/dist/stats       → 200 FleetStats                         (join-secret auth)
//	POST /v1/dist/annotate    AnnotateRequest → 200                    (join-secret auth)
//	GET  /v1/dist/events      fleet-wide SSE stream (Last-Event-ID resume, join-secret auth)
//
// Failures answer with the shared /v1 envelope
// ({"error":{"code","message"}}, internal/api); workers key on the
// status codes alone (401 re-register, 403 revoked, 410 lease gone).
//
// Data-plane calls (lease, result, heartbeat, deregister) authenticate
// with the per-worker token minted by register; 401 = unknown token
// (re-register), 403 = revoked (terminate).

// RegisterRequest joins a worker to the fleet.
type RegisterRequest struct {
	// Worker is the self-reported name (host:pid by default) — used in
	// logs and fleet events alongside the assigned id.
	Worker string `json:"worker"`
}

// RegisterResponse carries the worker's identity and the fleet pacing
// parameters the coordinator wants every worker to use.
type RegisterResponse struct {
	// Worker is the coordinator-assigned id ("w3"); admin drain/revoke
	// calls name workers by it.
	Worker string `json:"worker"`
	// Token authenticates every subsequent data-plane call.
	Token string `json:"token"`
	// HeartbeatSec is the heartbeat interval the coordinator expects
	// (comfortably under the lease TTL).
	HeartbeatSec float64 `json:"heartbeat_sec"`
	// LongPollSec is the longest the coordinator will park a lease
	// request; workers should ask for this much.
	LongPollSec float64 `json:"long_poll_sec"`
	// TTLSec is the lease TTL, for sizing client-side timeouts.
	TTLSec float64 `json:"ttl_sec"`
}

// LeaseRequest is a worker's (long-polling) request for work.
type LeaseRequest struct {
	// Worker is the self-reported name (logs only; identity travels in
	// the bearer token).
	Worker string `json:"worker"`
	// WaitSec asks the coordinator to park the request for up to this
	// many seconds when no work is pending (capped by Config.LongPoll).
	// Zero means answer immediately.
	WaitSec float64 `json:"wait_sec,omitempty"`
}

// LeaseResponse is the answer to a lease request: work, or a drain
// directive. (No work before the wait deadline is 204, no body.)
type LeaseResponse struct {
	Lease *Lease `json:"lease,omitempty"`
	// Drain tells the worker to stop asking: finish anything in flight,
	// deregister and exit.
	Drain bool `json:"drain,omitempty"`
}

// Lease is one unit of handed-out work: a contiguous point range of one
// job's sweep plan.
type Lease struct {
	ID   string     `json:"id"`
	Job  string     `json:"job"`
	Spec sweep.Spec `json:"spec"`
	// Points lists the leased plan point indexes (contiguous, ascending).
	Points []int `json:"points"`
	// Fingerprint is the coordinator's plan fingerprint; the worker
	// refuses the lease if its locally-built plan disagrees.
	Fingerprint string `json:"fingerprint"`
	// PoolSize/PoolSeed pin the waveform pool identity for pooled specs;
	// zero for pool-less sweeps.
	PoolSize int   `json:"pool_size,omitempty"`
	PoolSeed int64 `json:"pool_seed,omitempty"`
	// TTLSec is the lease deadline: the worker must heartbeat (or finish)
	// within this many seconds or the points are re-issued.
	TTLSec float64 `json:"ttl_sec"`
}

// LeaseResult reports a finished or failed lease. Points carries one
// complete per-point tally per leased point (sweep.PointTally); Error
// marks the whole lease failed.
type LeaseResult struct {
	Lease       string             `json:"lease"`
	Job         string             `json:"job"`
	Worker      string             `json:"worker"`
	Fingerprint string             `json:"fingerprint"`
	Points      []sweep.PointTally `json:"points,omitempty"`
	Error       string             `json:"error,omitempty"`
}

// Heartbeat re-arms a running lease's deadline and reports progress.
type Heartbeat struct {
	Lease  string `json:"lease"`
	Worker string `json:"worker"`
	// DonePackets is the worker's packet count completed within this
	// lease so far. Besides progress reporting, it feeds the
	// coordinator's per-point latency estimate for adaptive lease sizing.
	DonePackets int64 `json:"done_packets"`
}

// HeartbeatResponse acknowledges a heartbeat and piggy-backs fleet
// directives on it.
type HeartbeatResponse struct {
	Status string `json:"status"`
	// Drain tells the worker to finish this lease, take no new ones,
	// deregister and exit.
	Drain bool `json:"drain,omitempty"`
}

// WorkerInfo is one registered worker as reported by GET
// /v1/dist/workers.
type WorkerInfo struct {
	ID    string `json:"id"`
	Name  string `json:"name"`
	State string `json:"state"` // "active", "draining" or "revoked"
	// Leases is the number of currently live leases.
	Leases int `json:"leases"`
	// Granted counts every lease ever granted to this worker.
	Granted int64 `json:"granted"`
	// AgeSec is the time since registration; IdleSec the time since the
	// worker was last heard from.
	AgeSec  float64 `json:"age_sec"`
	IdleSec float64 `json:"idle_sec"`
	// LastProgressSec is the time since the freshest of the worker's live
	// leases last advanced its heartbeat packet count (the lease grant
	// counts as progress), or −1 when the worker holds no live lease. A
	// worker that heartbeats dutifully while this grows is wedged — the
	// failure mode the supervisor's stuck-lease detector keys on.
	LastProgressSec float64 `json:"last_progress_sec"`
}

// AnnotateRequest (POST /v1/dist/annotate, join-secret auth) injects a
// control-plane annotation into the fleet event stream. Only
// "supervisor-" prefixed types are accepted: the supervisor uses it to
// surface spawns, quarantines and stuck-lease actions next to the
// coordinator's own lifecycle events, where stream consumers already
// look.
type AnnotateRequest struct {
	Type   string `json:"type"`
	Worker string `json:"worker,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// FleetEvent is one entry of the fleet-wide event stream (GET
// /v1/dist/events): worker lifecycle, lease lifecycle and job
// milestones, sequenced for Last-Event-ID resume.
type FleetEvent struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"` // worker-join|worker-drain|worker-revoke|worker-leave|lease-grant|lease-expire|lease-cancel|job-submit|job-done|job-failed|supervisor-*
	// Worker is the assigned worker id (worker and lease events).
	Worker string `json:"worker,omitempty"`
	Job    string `json:"job,omitempty"`
	Lease  string `json:"lease,omitempty"`
	// Points is the point count a lease event covers.
	Points int `json:"points,omitempty"`
	// Detail is a human-oriented annotation (names, reasons).
	Detail string `json:"detail,omitempty"`
}

// ListWorkers pages through the coordinator's whole worker registry
// (GET /v1/dist/workers, newest first as served) with the join-secret
// client c.
func ListWorkers(ctx context.Context, c api.Client) ([]WorkerInfo, error) {
	return api.ListAll[WorkerInfo](ctx, c, "/v1/dist/workers")
}

// WorkerAction asks the coordinator to "drain" or "revoke" worker id
// with the join-secret client c. An unknown worker answers 404
// (api.IsStatus(err, http.StatusNotFound)).
func WorkerAction(ctx context.Context, c api.Client, id, action string) error {
	return c.Call(ctx, http.MethodPost, "/v1/dist/workers/"+id+"/"+action, nil, nil)
}
