// Command cprecycle-bench regenerates the paper's tables and figures at
// configurable fidelity. Each experiment prints an aligned text table whose
// rows mirror the corresponding figure's series (-list prints the
// experiment ids; internal/experiments documents each one).
//
// The packet-success-rate sweeps (fig5, fig8-fig12, fig14, the ablations
// and delay-spread) run on the sharded sweep engine (internal/sweep): each
// measurement point is split into packet-range shards scheduled across a
// bounded worker pool, with segment plans and per-packet preamble
// trainings shared across shards. Engine sharding is bit-identical to the
// sequential path at the same flags, so default invocations reproduce the
// regression-pinned numbers exactly. -pool additionally shares a
// pre-encoded interferer waveform pool across all points and experiments
// of the invocation: much faster and deterministic per seed, but it
// replaces the per-tile payload draws with pool picks, so pooled tables
// are statistically equivalent rather than packet-identical to the
// default path. Analysis experiments (table1, fig4*, fig6*, fig13) always
// run directly.
//
// Usage:
//
//	cprecycle-bench -experiment fig8 -packets 2000 -bytes 400
//	cprecycle-bench -experiment all -packets 200
//	cprecycle-bench -experiment fig8 -store results/         # resumable
//	cprecycle-bench -serve :8080                             # HTTP service
//	cprecycle-bench -coordinator :8080 -store jobs/          # distributed
//	cprecycle-bench -worker -join http://host:8080           # …its workers
//	cprecycle-bench -submit -join http://host:8080 -experiment fig8
//	cprecycle-bench -fleet -join http://host:8080            # list workers
//	cprecycle-bench -drain w1 -join http://host:8080         # graceful scale-down
//	cprecycle-bench -supervisor -join http://host:8080       # self-scaling fleet
//	cprecycle-bench -list
//
// # The result store
//
// -store DIR names a content-addressed result store (see
// internal/sweep/store for the binary format): as each measurement
// point completes, its tally is persisted under a key derived from the
// sweep plan's fingerprint, the pool identity and the point's identity.
// Re-running any sweep over the same directory restores every stored
// point without recomputing it — a kill -9 mid-sweep loses at most the
// points in flight, and a finished sweep replays entirely from the
// store. Because records are content-addressed, one directory serves
// every experiment, seed and fidelity safely ('-experiment all -store
// results/' just works); changing any spec knob simply misses the store
// and computes fresh. Stored tallies are bit-identical to a direct run,
// so resumed tables match uninterrupted ones byte for byte.
//
// Resumable quickstart (interrupt and re-run at will):
//
//	$ cprecycle-bench -experiment fig8 -packets 2000 -store results/
//	^C                                      # or kill -9, power loss, …
//	$ cprecycle-bench -experiment fig8 -packets 2000 -store results/
//	                                        # finished points restore, rest resume
//
// -store-max-bytes N puts the store on a size budget: when a Put pushes
// it past N bytes, whole least-recently-hit segments are evicted (LRU by
// last store hit, cpr_store_evicted_* counters) — except segments whose
// records a live job still references, which are pinned until the job
// settles. An evicted point simply recomputes on its next sweep; a
// stored sweep whose points were evicted reports the exact gaps on its
// history table endpoint instead of fabricating a table.
//
// Every run against a store is also recorded in a results-history index
// (history.jsonl beside the segments): experiment, plan fingerprint,
// normalised spec, pool identity and submission time. The read-only
// GET /v1/history/* endpoints above answer from this index plus the
// store's in-memory key index — listing past sweeps, re-assembling any
// fully-stored sweep into its exact table without re-running a packet,
// and diffing two sweeps point-by-point. History quickstart:
//
//	$ cprecycle-bench -serve :8080 -store results/
//	$ curl :8080/v1/history/experiments
//	$ curl :8080/v1/history/sweeps?experiment=fig8
//	$ curl :8080/v1/history/sweeps/$FP/table      # byte-identical to the live run
//	$ curl ':8080/v1/history/diff?a=FP1&b=FP2'    # per-point tally deltas
//
// Serve mode (-serve ADDR) exposes an in-process engine over HTTP;
// coordinator mode (-coordinator ADDR) serves the identical client API
// but executes nothing itself, handing point-range leases to -worker
// processes instead. Both modes serve the same job shape — engine and
// coordinator jobs share one event log (sweep.JobLog) — through one SSE
// writer (api.ServeSSE, also behind the fleet stream), and every client
// mode here (-submit, -fleet, -drain, -revoke, -worker, -supervisor)
// speaks through one /v1 client (api.Client). The complete /v1 surface (jobs + history + worker
// tier + observability — the history and dist endpoints appear only on
// servers run with -store / -coordinator respectively):
//
//	POST   /v1/jobs        submit a sweep.Spec (JSON body) → 202 {"id":"j1",…}
//	GET    /v1/jobs        jobs' progress, newest-submitted first;
//	                       ?limit= & ?cursor= paginate ({"items":[…],
//	                       "next_cursor":"…"}; an exhausted listing has
//	                       no next_cursor)
//	GET    /v1/jobs/{id}   one job's progress
//	GET    /v1/jobs/{id}/table   the rendered table (202 while running)
//	GET    /v1/jobs/{id}/events  SSE stream: one "point" event per
//	                             completed point (completed ones replay
//	                             first), then one terminal "done" event
//	                             carrying the final progress/state. Each
//	                             point event's SSE id is its seq; a
//	                             reconnect presenting Last-Event-ID
//	                             resumes after that seq instead of
//	                             replaying every completed point
//	DELETE /v1/jobs/{id}   cancel-vs-purge: a running job is cancelled
//	                       and removed (200); a finished job is a
//	                       recorded result, so removing it demands an
//	                       explicit ?purge=1 — without it the request is
//	                       refused with 409; unknown ids 404
//	GET    /v1/experiments list accepted experiment ids
//
//	GET    /v1/history/experiments       per-experiment history: distinct
//	                                     sweeps, total runs, the latest
//	                                     plan fingerprint
//	GET    /v1/history/sweeps            recorded sweeps, newest first;
//	                                     ?experiment= ?fingerprint=
//	                                     ?since=UNIX ?until=UNIX filter,
//	                                     ?limit=/?cursor= paginate
//	GET    /v1/history/sweeps/{fp}/table the stored sweep re-assembled
//	                                     into its table without re-running
//	                                     a packet — byte-identical to the
//	                                     live /v1/jobs/{id}/table output;
//	                                     409 names the exact missing
//	                                     point indices when the store
//	                                     holds only part of the sweep
//	GET    /v1/history/diff?a=FP&b=FP    per-point tally deltas between
//	                                     two recorded sweeps (points
//	                                     matched by identity; mismatched
//	                                     point sets reported explicitly
//	                                     as only_a/only_b)
//
//	POST   /v1/dist/register             join secret → worker token
//	POST   /v1/dist/lease                long-poll for a point-range lease
//	POST   /v1/dist/result | /heartbeat | /deregister   worker data plane
//	GET    /v1/dist/workers              registry, newest first, paginated
//	POST   /v1/dist/workers/{id}/drain | /revoke        fleet admin
//	GET    /v1/dist/events               fleet lifecycle SSE stream
//
//	GET    /v1/status      one-shot JSON dashboard: mode, uptime, runtime
//	                       stats, job summary, fleet stats (coordinator)
//	                       and a flat dump of every registered metric
//	GET    /metrics        Prometheus text exposition (0.0.4)
//	GET    /debug/pprof/   live profiling (heap, profile, trace, …)
//
// Every endpoint answers failures with one envelope —
// {"error":{"code":"not_found","message":"no job \"j9\""}}, Content-Type
// application/json — with stable snake_case codes derived from the HTTP
// status (see internal/api). The spec JSON mirrors sweep.Spec:
// {"experiment":"fig8","packets":2000,"psdu_bytes":400,"seed":1,
// "axis":[…],"receivers":[…],"mcs":[…],"pool":true}. Specs never name
// server-side paths; durability comes from the server's own -store flag
// in both serve and coordinator mode.
//
// # Distributed mode
//
// Workers join the fleet with POST /v1/dist/register, exchanging the
// join secret (-token) for a per-worker revocable bearer token, then
// long-poll POST /v1/dist/lease for work: the coordinator parks the
// request (bounded, ~30s) and wakes it the moment work appears — no
// fixed-interval polling anywhere. Leases are sized adaptively from the
// job's observed per-point latency toward a wall-clock target (~4× the
// heartbeat interval); -lease-points pins a fixed size instead. Workers
// run leases on a local sweep engine (with their own waveform pool built
// from the lease's pool identity), heartbeat on /v1/dist/heartbeat, and
// report per-point tallies on /v1/dist/result, retrying transient
// transport failures with capped jittered backoff. A lease that misses
// its TTL — worker crash, kill -9, partition — is re-issued; results are
// idempotent and tallies deterministic, so duplicated work merges
// bit-identically. Leases carry the sweep plan's fingerprint and workers
// refuse leases their own build plans differently, so coordinator/worker
// version skew is rejected instead of silently blended. The determinism
// contract (pinned by internal/sweep/dist chaos tests): a coordinator
// plus any number of workers — under transport faults, kills, drains and
// revocations — renders the byte-identical table a single in-process
// engine produces for the same spec and seed. See internal/sweep/dist
// for the full protocol.
//
// -token S sets the fleet join secret: the coordinator requires it on
// registration and admin calls (and -serve requires it on everything),
// -worker presents it to register, and -submit/-fleet/-drain/-revoke
// send it. -store DIR makes coordinator jobs durable — completed points
// land in the shared content-addressed store and a small JSON manifest
// per job records its spec, so a restarted (even kill -9'd) coordinator
// rebuilds every job from the store index and re-leases only the
// missing points (workers notice the restart via 401 and re-register on
// their own). Because the store is content-addressed, resubmitting an
// identical sweep — same process or weeks later — completes from the
// store without granting a single lease, and a point another job
// already computed is never sent to the fleet twice.
//
// Two-machine quickstart (machine A coordinates and serves results,
// machine B computes; add workers anywhere for more throughput):
//
//	A$ cprecycle-bench -coordinator :8080 -store /var/lib/cpr -token S
//	B$ cprecycle-bench -worker -join http://A:8080 -token S
//	A$ cprecycle-bench -submit -join http://localhost:8080 -token S \
//	       -experiment fig8 -packets 2000 -bytes 400
//
// -submit streams per-point progress to stderr as SSE events arrive and
// prints the final table to stdout, exactly like a local run of the same
// experiment; if the stream drops mid-sweep it reconnects with
// Last-Event-ID and resumes where it left off.
//
// Scale-down is graceful: either signal the worker —
//
//	B$ kill -TERM <worker pid>    # finish in-flight lease, deregister, exit
//
// — or drive it from the coordinator side:
//
//	A$ cprecycle-bench -fleet -join http://localhost:8080 -token S
//	w1  B:4242  active    leases=1  granted=12  age=1h2m
//	A$ cprecycle-bench -drain w1 -join http://localhost:8080 -token S
//
// Either way the worker completes its in-flight lease (the result is
// accepted), takes no new ones, and deregisters — nothing waits for a
// lease TTL. -mem-budget N (MiB) makes a worker police itself: it
// samples its own heap via runtime/metrics and triggers the same
// graceful drain when live heap exceeds the budget, trading capacity
// for not meeting the kernel's OOM killer. A slow worker whose lease
// was re-issued elsewhere may still deliver its result late; the
// coordinator accepts the first completion of each point, counts the
// rest as dedupes, and cancels redundant in-flight leases whose points
// have all completed elsewhere. -revoke w1 is the abrupt variant for a
// misbehaving worker:
// its token dies immediately, its leases re-queue, and any late result
// it sends is refused. GET /v1/dist/events (join-secret auth) streams
// fleet-wide lifecycle events (worker join/drain/revoke/leave, lease
// grant/expiry, job submit/done) as SSE with Last-Event-ID resume, for
// dashboards.
//
// # Running a self-scaling fleet
//
// -supervisor turns the manual scale-up/scale-down above into a control
// loop (internal/sweep/supervise): the supervisor watches the
// coordinator's queue depth and per-point latency estimate and spawns
// or drains local -worker processes so the pending queue drains in
// roughly half a minute, between -min-workers and -max-workers:
//
//	A$ cprecycle-bench -coordinator :8080 -store /var/lib/cpr -token S
//	A$ cprecycle-bench -supervisor -join http://localhost:8080 -token S \
//	       -max-workers 8 -worker-logs /var/log/cpr -obs :9091
//	A$ cprecycle-bench -submit -join http://localhost:8080 -token S \
//	       -experiment fig8 -packets 2000 -bytes 400
//
// Submitting work scales the fleet up (the supervisor reacts to the
// fleet event stream, not a polling interval); an idle fleet scales
// back down to -min-workers, 0 by default. Spawned workers are this
// binary re-invoked in -worker mode — -token, -workers, -shard,
// -mem-budget, -cpu-budget and the logging flags propagate — each
// logging to <worker-logs>/<name>.log with its pid in <name>.pid.
// Scale-down always uses graceful drain, never revocation, so
// completed work is never re-queued by the autoscaler.
//
// The supervisor also heals the fleet. A worker process that dies is
// replaced after a jittered exponential backoff; a worker that crashes
// repeatedly (-max-workers instant-exit loops, a bad binary) trips a
// circuit breaker that quarantines spawning for a few minutes instead
// of thrashing. A worker that heartbeats dutifully while its lease
// makes zero point progress — deadlocked, SIGSTOPped, livelocked; the
// failure TTLs cannot see — is drained after -stuck-after, and revoked
// if it ignores the drain, re-queueing its lease (`-fleet` shows each
// worker's progress age in the prog= column). The supervisor itself is
// stateless: kill -9 it, restart it, and it re-adopts the workers it
// finds registered — never spawning duplicates — because the
// coordinator's registry and event stream are the only state it reads.
// SIGTERM drains every worker it spawned, then exits; workers it
// merely adopted keep running.
//
// -cpu-budget N (cores) is the CPU twin of -mem-budget: the worker
// samples its own process CPU time (/proc/self/stat on Linux, the Go
// runtime's scheduler accounting elsewhere) and gracefully self-drains
// when its sustained rate exceeds the budget — capacity handed back
// before the kernel or a cgroup throttle does it un-gracefully.
//
// # Observability
//
// Every serving mode exposes GET /metrics (Prometheus text format,
// version 0.0.4) and GET /debug/pprof/ behind the same bearer auth as
// the rest of its API. Metric families follow a fixed naming scheme:
// cpr_sweep_* for the engine hot path (per-stage latency histograms
// cpr_sweep_stage_seconds{stage="tx"|"observe"|"train"|"decode"},
// per-packet cpr_sweep_packet_seconds, cpr_sweep_packets_total, job
// counters cpr_sweep_jobs_total{state=…}), cpr_dist_* for the
// coordinator's fleet view (workers by state, in-flight leases, queue
// depth, the adaptive lease estimate, expiry/re-queue/revocation
// counters, SSE subscriber gauges), cpr_store_* for the result store
// (hits, misses, dedupes, late_accepts, corrupt_records and the
// evicted_segments/records/bytes GC counters), cpr_history_* for the
// results-history index (runs recorded, queries, table re-assemblies,
// diffs) and cpr_dist_worker_* for a
// worker's own lease/poll/retry/re-registration counters. Workers have
// no API address of their own, so -obs ADDR starts a metrics side
// server on the worker:
//
//	B$ cprecycle-bench -worker -join http://A:8080 -token S -obs :9090
//	$ curl -H "Authorization: Bearer S" http://B:9090/metrics
//	$ go tool pprof -H "Authorization: Bearer S" http://B:9090/debug/pprof/profile
//
// GET /v1/status returns the same state as one JSON document (plus
// process runtime stats), which is what `cprecycle-bench -fleet`
// renders as its dashboard header. Logging is structured (log/slog)
// with component/job/worker/lease attributes; -log-level sets the
// threshold and -log-json switches the encoding for log shippers.
//
// The metrics layer (internal/obs) is allocation-free on the hot path
// — registration happens once at init, updates are atomic adds — so
// instrumented sweeps stay bit-identical and within noise of
// uninstrumented throughput (see BenchmarkPacketMetrics).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/experiments"
	"repro/internal/sweep"
	"repro/internal/sweep/dist"
	"repro/internal/sweep/history"
	"repro/internal/sweep/store"
	"repro/internal/sweep/supervise"
)

// lg is the process logger, reconfigured in main from -log-level and
// -log-json; the default keeps package-main helpers usable from tests.
var lg = slog.New(slog.NewTextHandler(os.Stderr, nil))

type runner func(experiments.Options) (*experiments.Table, error)

// registry maps every experiment id to its direct runner; the sweep
// experiments among them (experiments.IsSweepExperiment) are routed
// through the engine unless -direct is set.
func registry() map[string]runner {
	return map[string]runner{
		"table1":            func(experiments.Options) (*experiments.Table, error) { return experiments.Table1(), nil },
		"fig4a":             func(o experiments.Options) (*experiments.Table, error) { return experiments.Fig4a(o.Seed) },
		"fig4b":             func(o experiments.Options) (*experiments.Table, error) { return experiments.Fig4b(o.Seed) },
		"fig4c":             func(o experiments.Options) (*experiments.Table, error) { return experiments.Fig4c(o.Seed) },
		"fig5":              experiments.Fig5,
		"fig6a":             func(experiments.Options) (*experiments.Table, error) { return experiments.Fig6a() },
		"fig6b":             func(o experiments.Options) (*experiments.Table, error) { return experiments.Fig6b(o.Seed) },
		"fig8":              experiments.Fig8,
		"fig9":              experiments.Fig9,
		"fig10":             experiments.Fig10,
		"fig11":             experiments.Fig11,
		"fig12":             experiments.Fig12,
		"fig13":             func(o experiments.Options) (*experiments.Table, error) { return experiments.Fig13(o.Seed, 15) },
		"fig14":             experiments.Fig14,
		"ablation-decision": experiments.AblationDecision,
		"delay-spread":      experiments.DelaySpreadSweep,
		"ablation-soft":     experiments.AblationSoftDecoding,
	}
}

func main() {
	var (
		name    = flag.String("experiment", "all", "experiment id (see -list) or 'all'")
		packets = flag.Int("packets", 2000, "packets per measurement point (paper: 2000)")
		bytes   = flag.Int("bytes", 400, "PSDU size in bytes (paper: 400)")
		seed    = flag.Int64("seed", 1, "base RNG seed")
		list    = flag.Bool("list", false, "list experiment ids and exit")

		direct   = flag.Bool("direct", false, "run sweeps on the sequential path without the engine or waveform pool")
		pool     = flag.Bool("pool", false, "share pre-encoded interferer waveforms across sweep points (much faster, deterministic per seed, statistically equivalent — but not packet-identical to the default tx draws)")
		poolSize = flag.Int("pool-size", 0, "pre-encoded waveforms per (grid, MCS); 0 = default")
		workers  = flag.Int("workers", 0, "engine worker goroutines; 0 = GOMAXPROCS")
		shardPk  = flag.Int("shard", 0, "packets per engine shard; 0 = default")
		storeDir = flag.String("store", "", "content-addressed result store directory: sweep experiments checkpoint per-point tallies here and resume from them")
		storeMax = flag.Int64("store-max-bytes", 0, "result store size budget in bytes: when Puts push the store past it, least-recently-hit segments are evicted (records pinned by live jobs are never evicted); 0 = unlimited")
		serve    = flag.String("serve", "", "serve the sweep engine over HTTP on this address instead of running experiments")

		coordAddr = flag.String("coordinator", "", "serve a distributed sweep coordinator on this address (no local compute; workers join with -worker -join)")
		workerFlg = flag.Bool("worker", false, "run as a distributed sweep worker polling the -join coordinator")
		submitFlg = flag.Bool("submit", false, "submit the selected sweep experiment to the -join server, stream per-point progress and print the table")
		join      = flag.String("join", "", "server base URL (e.g. http://host:8080) for -worker, -submit and the fleet admin flags")
		token     = flag.String("token", "", "fleet join secret: enforced by -serve/-coordinator when set, presented by -worker/-submit and the fleet admin flags")
		memBudget = flag.Int64("mem-budget", 0, "worker heap budget in MiB: the worker samples runtime/metrics heap use and gracefully self-drains when it exceeds the budget; 0 = unlimited")
		cpuBudget = flag.Float64("cpu-budget", 0, "worker CPU budget in cores: the worker samples its own process CPU time (/proc/self/stat, falling back to runtime metrics) and gracefully self-drains when the rate stays over budget; 0 = unlimited")
		wkrName   = flag.String("worker-name", "", "worker: self-reported fleet name (default host:pid); the supervisor names its spawns with this")
		longPoll  = flag.Duration("long-poll", 0, "coordinator: park lease requests up to this long waiting for work; 0 = default (30s)")
		leasePts  = flag.Int("lease-points", 0, "pin every worker lease to this many plan points; 0 = adaptive sizing toward -lease-target of wall-clock work")
		leaseTgt  = flag.Duration("lease-target", 0, "wall-clock work an adaptive lease aims for; 0 = default (4× heartbeat interval)")
		leaseTTL  = flag.Duration("lease-ttl", 0, "re-issue a lease after this long without a heartbeat; 0 = default (30s)")

		logLevel = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
		logJSON  = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
		obsAddr  = flag.String("obs", "", "worker/supervisor: serve /metrics, /debug/pprof and /v1/status on this address (guarded by -token; -serve and -coordinator expose them on their API address)")

		supFlg     = flag.Bool("supervisor", false, "run the autoscaling fleet supervisor against the -join coordinator: spawn and drain local -worker processes to track queue demand, detect stuck leases, quarantine crash loops")
		minWorkers = flag.Int("min-workers", 0, "supervisor: never scale the fleet below this many workers (0 lets an idle fleet scale to zero)")
		maxWorkers = flag.Int("max-workers", 4, "supervisor: ceiling on concurrently running workers")
		workerLogs = flag.String("worker-logs", "", "supervisor: directory for spawned workers' per-worker .log and .pid files (empty: workers inherit the supervisor's stdout/stderr, no pid files)")
		stuckAfter = flag.Duration("stuck-after", 0, "supervisor: drain a worker whose lease makes zero point progress for this long, escalating to revocation if the drain is ignored; 0 = default (2m)")

		fleetFlg = flag.Bool("fleet", false, "list the -join coordinator's registered workers and exit")
		drainID  = flag.String("drain", "", "gracefully drain worker ID on the -join coordinator (finish in-flight lease, deregister) and exit")
		revokeID = flag.String("revoke", "", "revoke worker ID on the -join coordinator (cut it off, re-queue its leases now) and exit")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "bad -log-level %q (want debug, info, warn or error)\n", *logLevel)
		os.Exit(1)
	}
	hopts := &slog.HandlerOptions{Level: level}
	if *logJSON {
		lg = slog.New(slog.NewJSONHandler(os.Stderr, hopts))
	} else {
		lg = slog.New(slog.NewTextHandler(os.Stderr, hopts))
	}

	reg := registry()
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)

	if *list {
		for _, n := range names {
			fmt.Println(n)
		}
		return
	}

	engCfg := sweep.Config{Workers: *workers, ShardPackets: *shardPk, PoolSize: *poolSize, PoolSeed: *seed}

	if *coordAddr != "" {
		c, err := dist.New(dist.Config{
			LeasePoints:   *leasePts,
			LeaseTarget:   *leaseTgt,
			LeaseTTL:      *leaseTTL,
			LongPoll:      *longPoll,
			PoolSize:      *poolSize,
			PoolSeed:      *seed,
			StoreDir:      *storeDir,
			StoreMaxBytes: *storeMax,
			Token:         *token,
			Log:           lg,
		})
		if err == nil {
			defer c.Close()
			var hist *history.Index
			if *storeDir != "" {
				hist, err = openHistory(*storeDir)
			}
			if err == nil {
				err = runCoordinator(*coordAddr, *token, c, hist)
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *workerFlg {
		if *join == "" {
			fmt.Fprintln(os.Stderr, "-worker requires -join URL")
			os.Exit(1)
		}
		w, err := dist.StartWorker(dist.WorkerConfig{
			Coordinator: *join,
			Token:       *token,
			ID:          *wkrName,
			Engine:      sweep.Config{Workers: *workers, ShardPackets: *shardPk},
			MemBudget:   *memBudget << 20,
			CPUBudget:   *cpuBudget,
			Log:         lg,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer w.Close()
		if *obsAddr != "" {
			go func() {
				if err := listen(*obsAddr, api.BearerAuth(*token, workerObsHandler(w)), "worker observability"); err != nil {
					lg.Error("worker observability server", "err", err)
				}
			}()
		}
		fmt.Printf("worker serving %s (SIGTERM drains: in-flight lease finishes, then deregister)\n", *join)
		sigc := make(chan os.Signal, 2)
		signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
		for {
			select {
			case s := <-sigc:
				if s == syscall.SIGTERM && !w.Draining() {
					lg.Info("SIGTERM, draining (send again or SIGINT to hard-stop)", "component", "worker")
					w.Drain()
					continue
				}
				lg.Warn("hard stop (in-flight lease abandoned to TTL re-issue)", "component", "worker")
				return // deferred Close cancels the lease loop
			case <-w.Done():
				return // drained (or revoked) and deregistered
			}
		}
	}

	if *supFlg {
		if *join == "" {
			fmt.Fprintln(os.Stderr, "-supervisor requires -join URL")
			os.Exit(1)
		}
		self, err := os.Executable()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		// Spawned workers are this binary re-invoked in -worker mode, with
		// the resource and logging flags propagated; the spawner appends
		// each worker's -worker-name.
		cmd := []string{self, "-worker", "-join", *join, "-log-level", *logLevel}
		if *token != "" {
			cmd = append(cmd, "-token", *token)
		}
		if *logJSON {
			cmd = append(cmd, "-log-json")
		}
		if *workers > 0 {
			cmd = append(cmd, "-workers", strconv.Itoa(*workers))
		}
		if *shardPk > 0 {
			cmd = append(cmd, "-shard", strconv.Itoa(*shardPk))
		}
		if *memBudget > 0 {
			cmd = append(cmd, "-mem-budget", strconv.FormatInt(*memBudget, 10))
		}
		if *cpuBudget > 0 {
			cmd = append(cmd, "-cpu-budget", strconv.FormatFloat(*cpuBudget, 'g', -1, 64))
		}
		s, err := supervise.Start(supervise.Config{
			Coordinator: *join,
			Token:       *token,
			Spawner:     &supervise.LocalSpawner{Command: cmd, LogDir: *workerLogs},
			MinWorkers:  *minWorkers,
			MaxWorkers:  *maxWorkers,
			StuckAfter:  *stuckAfter,
			Log:         lg,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *obsAddr != "" {
			go func() {
				if err := listen(*obsAddr, api.BearerAuth(*token, supervisorObsHandler(s)), "supervisor observability"); err != nil {
					lg.Error("supervisor observability server", "err", err)
				}
			}()
		}
		fmt.Printf("supervising %s (min %d, max %d workers; SIGTERM drains spawned workers and exits)\n",
			*join, *minWorkers, *maxWorkers)
		sigc := make(chan os.Signal, 2)
		signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
		<-sigc
		lg.Info("signal: draining spawned workers (send again to hard-stop)", "component", "supervisor")
		done := make(chan struct{})
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			s.Shutdown(ctx)
			close(done)
		}()
		select {
		case <-done:
		case <-sigc:
			lg.Warn("hard stop: spawned workers left running (a successor supervisor will adopt them)", "component", "supervisor")
		}
		return
	}

	if *fleetFlg || *drainID != "" || *revokeID != "" {
		if *join == "" {
			fmt.Fprintln(os.Stderr, "fleet admin flags require -join URL")
			os.Exit(1)
		}
		cl := newSubmitClient(*join, *token)
		var err error
		switch {
		case *drainID != "":
			err = cl.workerAction(*drainID, "drain")
		case *revokeID != "":
			err = cl.workerAction(*revokeID, "revoke")
		default:
			if err = cl.showStatus(); err == nil {
				err = cl.listWorkers()
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *submitFlg {
		if *join == "" {
			fmt.Fprintln(os.Stderr, "-submit requires -join URL")
			os.Exit(1)
		}
		if !experiments.IsSweepExperiment(*name) {
			fmt.Fprintln(os.Stderr, "-submit requires a single sweep experiment (see -list)")
			os.Exit(1)
		}
		spec := sweep.Spec{Experiment: *name, Packets: *packets, PSDUBytes: *bytes, Seed: *seed, Pool: *pool}
		if err := newSubmitClient(*join, *token).run(spec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	var st *store.Store
	var hist *history.Index
	if *storeDir != "" {
		if *direct {
			fmt.Fprintln(os.Stderr, "-store requires the engine path; drop -direct")
			os.Exit(1)
		}
		var err error
		if st, err = openStore(*storeDir, *storeMax); err == nil {
			hist, err = openHistory(*storeDir)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		engCfg.Store = st
	}

	if *serve != "" {
		eng := sweep.New(engCfg)
		defer eng.Close()
		if err := runServe(*serve, *token, eng, hist, st); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	opts := experiments.Options{Packets: *packets, PSDUBytes: *bytes, Seed: *seed}

	// One engine (and waveform pool) shared by every sweep of the
	// invocation; created lazily so analysis-only runs skip it.
	var eng *sweep.Engine
	defer func() {
		if eng != nil {
			eng.Close()
		}
	}()

	run := func(n string) error {
		r, ok := reg[n]
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", n)
		}
		start := time.Now()
		var tb *experiments.Table
		var err error
		if experiments.IsSweepExperiment(n) && !*direct {
			if eng == nil {
				eng = sweep.New(engCfg)
			}
			spec := sweep.Spec{
				Experiment: n,
				Packets:    *packets,
				PSDUBytes:  *bytes,
				Seed:       *seed,
				Pool:       *pool,
			}
			var job *sweep.Job
			if job, err = eng.Submit(context.Background(), spec); err == nil {
				if hist != nil {
					size, pseed := eng.PoolIdentity()
					recordHistory(hist, spec, size, pseed)
				}
				var res *sweep.Result
				if res, err = job.Wait(context.Background()); err == nil {
					tb = res.Table
				}
			}
		} else {
			tb, err = r(opts)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		fmt.Print(tb.Render())
		fmt.Printf("[%s completed in %v]\n\n", n, time.Since(start).Round(time.Millisecond))
		return nil
	}

	// Flag-conflict guards apply to 'all' and single experiments alike.
	// (-store works with 'all': records are content-addressed, so every
	// sweep of the invocation shares the one directory safely.)
	if *pool && *direct {
		fmt.Fprintln(os.Stderr, "-pool requires the engine path; drop -direct")
		os.Exit(1)
	}
	if *name == "all" {
		for _, n := range names {
			if err := run(n); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		return
	}
	if err := run(*name); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// openStore opens (creating if needed) the result store at dir.
// maxBytes > 0 arms the store's LRU segment eviction.
func openStore(dir string, maxBytes int64) (*store.Store, error) {
	st, stats, err := store.Open(dir, store.Options{MaxBytes: maxBytes})
	if err != nil {
		return nil, err
	}
	if stats.DamagedSegments > 0 {
		lg.Warn("store recovered past damage", "dir", dir,
			"segments", stats.Segments, "damaged", stats.DamagedSegments, "records", stats.Records)
	}
	return st, nil
}

// openHistory opens the results-history index sidecar in the store
// directory (creating it if absent).
func openHistory(dir string) (*history.Index, error) {
	hist, skipped, err := history.Open(dir, history.Options{})
	if err != nil {
		return nil, err
	}
	if skipped > 0 {
		lg.Warn("history index salvaged past damage", "dir", dir, "skipped_lines", skipped)
	}
	return hist, nil
}
