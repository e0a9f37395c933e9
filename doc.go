// Package repro is a from-scratch Go reproduction of "CPRecycle: Recycling
// Cyclic Prefix for Versatile Interference Mitigation in OFDM based
// Wireless Systems" (Rathinakumar, Radunovic, Marina — CoNEXT 2016).
//
// The paper's contribution lives in internal/core; every substrate it
// depends on (FFT/DSP primitives, 802.11a/g modulation and coding, OFDM
// framing, channel models, interference scenarios, kernel density
// estimation, a standard receiver chain, and a network-level deployment
// simulator) is implemented in the other internal packages, each
// documented in its package comment; cmd/cprecycle-bench's comment lists
// the experiments and the service surface, and perfbench/README.md the
// end-to-end benchmark. No paper-versus-measured record is committed yet.
// The benchmarks in bench_test.go regenerate every table and figure of
// the paper's evaluation at reduced fidelity; cmd/cprecycle-bench runs
// them at full fidelity.
//
// The receiver hot path is incremental, planar and allocation-free: the
// paper's P FFT windows per OFDM symbol — the scheme's main compute
// overhead — are produced by one seed FFT plus O(N·stride) sliding-DFT
// updates running entirely on split re/im planes (dsp.Planar,
// ofdm.Demodulator.Segments), updated sparsely at the 52 used
// subcarrier bins through one kernel, dsp.SlidingDFT.SlideRotatedTab,
// and its precomputed per-slide twiddle schedules (dsp.SlideTab), with
// cached Eq. 2 phase-ramp tables, process-wide FFT plans (dsp.PlanFor),
// precomputed per-subcarrier equalisation dividers (dsp.Divisor) and
// per-frame/per-receiver scratch buffers throughout
// (rx.Frame.ObserveSegments, core.Receiver). Values convert to
// complex128 only at the equalizer/constellation boundary; the planar FFT
// is pinned value-identical to the interleaved one, and the slid windows
// to a direct per-window FFT.
// Transmit synthesis is planar, windowed and allocation-free too:
// ofdm.Modulator runs the unnormalised planar inverse FFT with one gain
// multiply per sample, wifi.BuildPPDUInto encodes into a caller's buffer
// from pooled scratch and builds only the symbols that overlap a
// requested sample window, encoding only the information bits they
// carry, interference.Scenario asks each fresh interferer tile for just
// the samples that land in the stream (plus the channel's taps−1 before
// them), channel.Multipath.AddInto filters the tile straight into the
// stream, and interference.Scenario.RunInto realises a packet into a
// reused Composite (PSRPlan.RunPacket recycles them through a
// sync.Pool), so a steady-state packet's synthesis allocates nothing.
// The receive side is recycled through the same pooled packet buffer:
// the rx.Frame (with its demodulator) is re-bound in place by
// Frame.Bind, the core.Training retrained in place by Training.Train
// (which leaves the preamble deviations' phases to the KDE fits, the
// only readers), and each arm's core.Receiver reset by Receiver.Bind;
// the Viterbi decoder traces back into the pooled decode scratch, so a
// warm packet allocates only each arm's PSDU. Buffer ownership
// follows one rule throughout: observations and decisions a Frame or
// decider hands out (rx.Observation.Data, StandardDecider's decision
// and confidence slots on the Frame, the decisions of a core.Receiver,
// NaiveDecider or OracleDecider) are scratch of that Frame or decider,
// valid until its next call or Bind.
// The hottest planar kernels additionally run hand-written SIMD — AVX2
// on amd64 (runtime CPUID dispatch) and NEON on arm64 — with the Go
// loops kept as a complete scalar fallback (purego build tag,
// dsp.ForceScalar hook) and a bit-exactness contract (no FMA, scalar
// operation order) pinned by equivalence tests and fuzzing; see the
// internal/dsp package comment. The Viterbi decoder (internal/coding)
// stores one packed uint64 of survivor bits per trellis step in a pooled
// flat array, ≈262 KB for the longest PSDU, so no traceback window is
// needed. Hard-decision arms decode on integer path metrics, bit-identical
// to the float decoder because hard LLRs are ±1 with 0 erasures; soft
// arms decode on float64 path metrics. Each has an AVX2
// add-compare-select kernel, bit-identical to its scalar loop, under the
// same dispatch and ForceScalar switch as the dsp kernels, and the soft
// decode's LLR streams come from pools as the hard decode's do.
//
// Within one packet, one rx symbol loop serves hard and soft DATA
// decoding (rx.DecodeData, rx.DecodeDataSoft): it decides the symbols in
// order on the packet's goroutine — CPRecycle's §4.3 continuous model
// update makes each decision depend on the symbols before it — and
// writes each symbol's deinterleaved coded bits (hard) or Viterbi bit
// weights (soft) into that symbol's slot of one pooled packet stream.
// Parallelism lives at the packet level: RunPSR and the sweep engine
// spread a point's packets across workers. A same-seed regression test
// (internal/experiments) pins every receiver arm's packet decisions to
// the pre-optimisation implementation.
//
// The PSR sweep experiments run as a batch service: internal/sweep is a
// sharded engine that decomposes each figure into independent measurement
// points (experiments.SweepPlan / PlanPSR), schedules packet-range shards
// of all concurrent jobs over one bounded worker pool, and shares
// process-wide resources across shards — a pre-encoded interferer
// waveform pool (wifi.WaveformPool), per-point segment plans, and
// per-packet preamble trainings with lazily-fitted KDE models
// (core.Training) reused across receiver arms. Engine sharding is
// bit-identical to the sequential path; jobs offer progress counters,
// per-point event subscriptions (one event log, sweep.JobLog, shared
// with the coordinator's jobs), context cancellation, and durable
// resume through a content-addressed result store (internal/sweep/store:
// bit-packed CRC-guarded records keyed by plan fingerprint, pool
// identity and point identity; torn tails and corrupt records salvage
// every intact prefix record). The store can run on a size budget
// (-store-max-bytes): least-recently-hit segments are evicted whole,
// never touching records a live job has pinned. A results-history index
// (internal/sweep/history) records every sweep submitted against a
// store — experiment, plan fingerprint, spec, pool identity, run times
// — and serves the read-only GET /v1/history/* query surface: past
// sweeps listed and filtered, any fully-stored sweep re-assembled into
// its byte-identical table without re-running a packet, and two sweeps
// diffed point-by-point from stored tallies alone. The HTTP plumbing
// every /v1 tier shares — the {"error":{"code","message"}} envelope,
// bearer auth, limit/cursor pagination, the SSE writer and reader
// behind the job event stream, and the one /v1 client the CLI and the
// dist worker speak through — lives in internal/api.
//
// The service scales across processes and machines through
// internal/sweep/dist: a coordinator decomposes each job into point-range
// leases (identified against the plan's fingerprint,
// experiments.SweepPlan.Fingerprint); workers exchange the cluster join
// secret for a per-worker revocable token at registration, then draw
// leases over a long-polling dispatch endpoint — the coordinator parks
// the request until work or a directive arrives, so an idle fleet issues
// no fixed-interval polls — and run them on local engines
// (Engine.SubmitPoints) with their waveform pool rebuilt from the lease's
// pool identity. Lease sizes adapt to observed per-point latency and the
// live worker count, targeting a fixed slice of wall-clock work per
// lease; workers heartbeat while running and report per-point tallies
// that merge bit-identically to a single in-process engine. Leases that
// miss their TTL are re-issued, results are idempotent, transient
// transport faults retry under jittered exponential backoff, and
// completed points persist in the shared result store so a kill -9'd
// coordinator rebuilds every job from its manifest plus the store index
// and re-leases only the missing points (workers re-register
// transparently); a late result from a slow re-leased worker is
// accepted exactly once and the redundant re-run in flight is
// cancelled, while repeated or cross-job identical sweeps complete from
// the store without touching the fleet. Workers leave the fleet two
// ways: graceful drain (admin endpoint or SIGTERM, piggy-backed on
// heartbeat and lease responses — the worker finishes its in-flight
// lease, deregisters, and nothing is re-queued via TTL expiry) and
// revocation (the token dies immediately, live leases re-queue, late
// results are refused). The determinism contract — coordinator + N
// workers renders the byte-identical table of one direct engine,
// including under injected transport chaos, mid-sweep worker death,
// drain and revocation — is pinned by the dist package tests and the
// end-to-end chaos smoke (make smoke-dist).
//
// The fleet is sized by hand. Each lease records when a heartbeat last
// advanced its packet count, so a worker that heartbeats while making
// no progress shows a growing progress age on the worker registry and
// in the fleet stats; an operator drains or revokes it. The
// cmd/cprecycle-bench command routes the sweep figures through the
// engine and serves both tiers over HTTP (-serve, -coordinator /
// -worker / -submit, fleet admin via -fleet / -drain / -revoke), with
// per-point SSE streaming on /v1/jobs/{id}/events (point events carry
// their seq as the SSE id; reconnecting consumers present Last-Event-ID
// and resume mid-stream instead of replaying every point); see that
// package's comment for the spec format, endpoints, protocol and
// quickstart.
//
// The whole service is observable without perturbing it: internal/obs
// is a dependency-free metrics core — counters, gauges and fixed-bucket
// histograms registered once at init, updated with atomic operations
// only (zero allocations on the hot path, enforced by test), rendered
// in Prometheus text format. The receiver and sweep layers record
// per-stage wall-clock histograms per packet
// (cpr_sweep_stage_seconds{stage="tx"|"observe"|"train"|"decode"},
// cpr_sweep_packet_seconds) plus engine job/point counters; the
// coordinator and worker render instance-scoped fleet series (cpr_dist_*:
// workers by state, in-flight leases, queue depth, the adaptive lease
// estimate, oldest lease-progress age, expiry/re-queue/revocation
// counters). Every serving mode exposes GET /metrics and authenticated /debug/pprof
// handlers, plus GET /v1/status — a one-call JSON dashboard that
// `cprecycle-bench -fleet` renders. Logging is structured (log/slog)
// with component/job/worker/lease attributes (-log-level, -log-json).
// Because instrumentation is pure timing — no RNG interaction, no
// decision input — the same-seed regression tests hold unchanged, and
// the smoke chaos run scrapes live coordinator and worker endpoints
// mid-sweep (scripts/smoke_dist.sh, cmd/promcheck).
package repro
