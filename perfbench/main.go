// Command perfbench is the repository benchmark: what one PSR packet of
// the paper's evaluation costs end to end, and where that cost goes.
//
// Each workload is one sweep (see workloads.go and README.md). A run sets
// it up, then
//
//   - for --seconds, alternates two halves of equal length: a cold sweep
//     through the entry users run — sweep.Engine.Submit and Job.Wait, or
//     dist.Coordinator.Submit served by an in-process dist.Worker — and a
//     stretch of the packet loop, so that both sample the whole run;
//   - with --trace 0 the packet loop times experiments.PSRPlan.RunPacket
//     serially, with a probe of the core's speed between packets
//     (probe.go), and the run reports the end-to-end metrics;
//   - with --trace 1 it replays each packet from the public calls
//     RunPacket makes with a span around each (trace.go), alternating with
//     untraced RunPacket calls whose outcomes it must match, and the run
//     reports the per-layer metrics. Spans are written to
//     .bench_build/spans/;
//   - checks the outputs: the table must be byte-identical to
//     experiments.RunSweepPlan on the same plan, and at the default seed
//     the per-arm tallies must equal the committed ones.
//
// Run from the repository root:
//
//	bash perfbench/run.sh --workload aci-fresh --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; everything else goes to
// standard error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sweep"
)

const (
	// runTimeout bounds a whole run; past it the process exits non-zero
	// rather than hang.
	runTimeout = 170 * time.Second
	// setupRuns is how many cold set-ups setup_s takes the median of: this
	// process's own and setupRuns-1 fresh child processes, so that
	// process-wide caches are cold in every sample.
	setupRuns = 9
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name      = flag.String("workload", "", "workload: aci-fresh, cci-native, aci-pooled-soft or fleet-small-points")
		seed      = flag.Int64("seed", defaultSeed, "workload seed; committed tallies are checked at the default")
		seconds   = flag.Int("seconds", 40, "seconds of measured work")
		traceMode = flag.Int("trace", 0, "0 reports the end-to-end metrics, 1 the traced per-layer split")
		setupOnly = flag.Bool("setup-only", false, "set the workload up, print the set-up seconds and exit (used to time cold set-ups in child processes)")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	watchdog := time.AfterFunc(runTimeout, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runTimeout)
		os.Exit(3)
	})
	defer watchdog.Stop()

	workers := min(2, runtime.NumCPU())
	e, err := setupEnv(w, *seed, workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: set-up: %v\n", err)
		return 1
	}
	if *setupOnly {
		e.close()
		fmt.Println(e.setup.Seconds())
		return 0
	}
	r := &runner{e: e, seed: *seed}
	budget := time.Duration(*seconds) * time.Second
	var loop packetLoop
	if *traceMode == 0 {
		loop = newSerialLoop(e.plans)
	} else {
		loop = newTracedLoop(e.plans, e.segs)
	}
	sw := r.sweeps(budget, loop)
	for loop.samples() < loop.minSamples() {
		loop.run(r, 0)
	}
	r.checkReference(sw)
	var ds distStats
	if w.fleet {
		ds = r.replays(sw)
	}
	e.close()

	res := result{Metrics: make(map[string]metric)}
	if *traceMode == 0 {
		setups := []float64{e.setup.Seconds()}
		for range setupRuns - 1 {
			s, err := childSetup(w.name, *seed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: child set-up: %v\n", err)
				return 1
			}
			setups = append(setups, s)
		}
		sl := loop.(*serialLoop)
		// The percentiles are over the packets timed while the core ran
		// at its quiet speed: the share of a run the host slows the core
		// varies from run to run, and a median over every packet lands
		// on the quiet or the slowed speed accordingly.
		lat, limit := quiet(sl.latMS, sl.probeMS, sl.minSamples())
		p50, _ := percentile(lat, 0.5)
		p90, above := percentile(lat, 0.9)
		all50, _ := percentile(sl.latMS, 0.5)
		n := float64(max(len(sl.latMS), 1))
		fmt.Fprintf(os.Stderr, "serial RunPacket: %d packets, %d quiet (probe ≤ %.4f ms): p50 %.3f ms, p90 %.3f ms with %d above; p50 of all %.3f ms\n",
			len(sl.latMS), len(lat), limit, p50, p90, above, all50)
		sl.logStages()
		fmt.Fprintf(os.Stderr, "setup_s samples: %v\n", setups)
		put := func(n string, v float64, unit string) { res.Metrics[n] = metric{v, unit} }
		put("pkts_per_s", float64(e.plan.TotalPackets())/median(sw.wallS), "1/s")
		put("packet_ms_p50", p50, "ms")
		put("packet_ms_p90", p90, "ms")
		put("alloc_kb_per_pkt", float64(sl.bytes)/1024/n, "KiB")
		put("allocs_per_pkt", float64(sl.mallocs)/n, "count")
		put("max_heap_mb", float64(sw.heap)/(1<<20), "MiB")
		put("setup_s", median(setups), "s")
	} else {
		for n, m := range r.tracedMetrics(loop.(*tracedLoop), sw, ds) {
			res.Metrics[n] = m
		}
	}
	res.Attempted, res.Failed, res.Correct = r.attempted, r.failed, r.failed == 0
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// childSetup times one cold set-up of the workload in a fresh process.
func childSetup(name string, seed int64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10), "--setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	lines := strings.Fields(string(out))
	if len(lines) == 0 {
		return 0, fmt.Errorf("no set-up time printed")
	}
	return strconv.ParseFloat(lines[len(lines)-1], 64)
}

// liveHeap collects garbage and returns the heap still in use: the
// resident memory a workload holds at a quiet moment, undisturbed by
// where a collection happens to fall among in-flight packets.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // the first collection only moves sync.Pool contents to their victim caches
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runner accumulates a run's attempted and failed counts.
type runner struct {
	e         *env
	seed      int64
	attempted int64
	failed    int64
}

// fail records a failed output check.
func (r *runner) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: "+format+"\n", args...)
}

// sweepJob is what the benchmark needs of a sweep.Job or a dist.Job.
type sweepJob interface {
	Wait(ctx context.Context) (*sweep.Result, error)
	Progress() sweep.Progress
}

func (r *runner) submit(spec sweep.Spec) (sweepJob, error) {
	if r.e.coord != nil {
		return r.e.coord.Submit(spec)
	}
	return r.e.engine.Submit(context.Background(), spec)
}

// sweepRep is one cold sweep.
type sweepRep struct {
	spec   sweep.Spec
	table  string
	points [][]experiments.PSRPoint
}

type sweepStats struct {
	// heap is the larger live heap of the two quiet moments whose state
	// does not depend on run length: after set-up and after the first
	// sweep (services keep finished jobs, so later moments grow with the
	// number of sweeps a run fits in).
	heap     uint64
	reps     []sweepRep
	submitMS []float64
	wallS    []float64
}

// repSeed is the seed of cold sweep rep. The engine keeps no results, so
// its reps repeat the run's spec; the fleet's store would serve a repeat,
// so each of its reps after the first moves to a seed no run starts from.
func (r *runner) repSeed(rep int) int64 {
	if r.e.coord == nil {
		return r.seed
	}
	return r.seed + int64(rep)*1_000_000
}

// sweeps runs cold sweeps, each followed by as long a stretch of loop,
// while another pair still fits in budget (at least one pair).
func (r *runner) sweeps(budget time.Duration, loop packetLoop) sweepStats {
	st := sweepStats{heap: liveHeap()}
	pkts := r.e.plan.TotalPackets()
	start := time.Now()
	var last time.Duration // the last pair's length
	for rep := 0; rep == 0 || time.Since(start)+last <= budget; rep++ {
		t0 := time.Now()
		spec := r.e.spec
		spec.Seed = r.repSeed(rep)
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		job, err := r.submit(spec)
		submitted := time.Since(t0)
		var res *sweep.Result
		if err == nil {
			res, err = job.Wait(ctx)
		}
		wall := time.Since(t0)
		cancel()
		r.attempted += int64(pkts)
		if err != nil {
			r.failed += int64(pkts)
			fmt.Fprintf(os.Stderr, "perfbench: sweep %d: %v\n", rep, err)
			break
		}
		if p := job.Progress(); p.RestoredPoints != 0 || p.State != "done" {
			r.fail("sweep %d: state %s with %d restored points, want a cold done sweep", rep, p.State, p.RestoredPoints)
		}
		table := res.Table.Render()
		if len(st.reps) > 0 && spec.Seed == st.reps[0].spec.Seed && table != st.reps[0].table {
			r.fail("sweep %d: table differs from sweep 0 of the same spec", rep)
		}
		st.reps = append(st.reps, sweepRep{spec: spec, table: table, points: res.Points})
		if rep == 0 {
			st.heap = max(st.heap, liveHeap())
		}
		st.submitMS = append(st.submitMS, float64(submitted)/1e6)
		st.wallS = append(st.wallS, wall.Seconds())
		loop.run(r, wall)
		last = time.Since(t0)
	}
	fmt.Fprintf(os.Stderr, "%s: %d cold sweeps of %d points × %d packets of %d bytes on %d workers, %.3f s median\n",
		r.e.w.name, len(st.reps), len(r.e.plan.Points), r.e.spec.Packets, r.e.spec.PSDUBytes, r.e.workers, median(st.wallS))
	return st
}

// checkReference compares the first sweep with the direct path,
// experiments.RunSweepPlan, and at the default seed with the committed
// tallies.
func (r *runner) checkReference(st sweepStats) {
	if len(st.reps) == 0 {
		return
	}
	first := st.reps[0]
	plan, err := r.e.sweepPlan(first.spec)
	var ref *experiments.Table
	if err == nil {
		ref, err = experiments.RunSweepPlan(plan)
	}
	if err != nil {
		r.fail("reference sweep: %v", err)
		return
	}
	if ref.Render() != first.table {
		r.fail("engine/coordinator table differs from experiments.RunSweepPlan:\n%s\nwant:\n%s", first.table, ref.Render())
	}
	got := tallies(first.points)
	fmt.Fprintf(os.Stderr, "tallies at seed %d (OK of %d per point and arm): %s\n", r.seed, r.e.spec.Packets, formatTallies(got))
	if r.seed != defaultSeed {
		return
	}
	if want := r.e.w.tallies; formatTallies(got) != formatTallies(want) {
		r.fail("tallies at the default seed: got %s, want %s", formatTallies(got), formatTallies(want))
	}
	for _, pt := range first.points {
		for _, a := range pt {
			if a.N != r.e.spec.Packets {
				r.fail("point tally N %d, want %d", a.N, r.e.spec.Packets)
			}
		}
	}
}

func tallies(points [][]experiments.PSRPoint) [][]int {
	out := make([][]int, len(points))
	for i, pt := range points {
		for _, a := range pt {
			out[i] = append(out[i], a.OK)
		}
	}
	return out
}

// formatTallies renders tallies as a Go literal, as committed in
// workloads.go.
func formatTallies(t [][]int) string {
	var b strings.Builder
	b.WriteString("{")
	for i, pt := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("{")
		for j, v := range pt {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(strconv.Itoa(v))
		}
		b.WriteString("}")
	}
	b.WriteString("}")
	return b.String()
}

// distStats is what the fleet layers report after the cold sweeps.
type distStats struct {
	leasesPerSweep float64
	expiries       int64
	requeued       int64
	retries        int64
	replayMS       []float64
	bytesPerPoint  float64
}

// replays resubmits every cold sweep, which the store must now serve
// whole — same table, no lease — and reads the fleet's counters.
func (r *runner) replays(st sweepStats) distStats {
	before := r.e.coord.Stats()
	ds := distStats{
		leasesPerSweep: float64(before.LeasesGranted) / float64(max(len(st.reps), 1)),
		expiries:       before.LeaseExpiries,
		requeued:       before.RequeuedPoints,
		retries:        r.e.worker.Stats().Retries,
	}
	for i, rep := range st.reps {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		t0 := time.Now()
		job, err := r.e.coord.Submit(rep.spec)
		var res *sweep.Result
		if err == nil {
			res, err = job.Wait(ctx)
		}
		d := time.Since(t0)
		cancel()
		switch {
		case err != nil:
			r.fail("replay %d: %v", i, err)
			continue
		case res.Table.Render() != rep.table:
			r.fail("replay %d: table differs from the cold sweep", i)
		}
		if p := job.Progress(); p.RestoredPoints != p.Points {
			r.fail("replay %d: %d of %d points restored", i, p.RestoredPoints, p.Points)
		}
		ds.replayMS = append(ds.replayMS, float64(d)/1e6)
	}
	if after := r.e.coord.Stats(); after.LeasesGranted != before.LeasesGranted {
		r.fail("replays took %d leases, want 0", after.LeasesGranted-before.LeasesGranted)
	}
	ds.bytesPerPoint = float64(r.e.coord.Store().Bytes()) / float64(max(len(st.reps)*len(r.e.plan.Points), 1))
	return ds
}

// packetLoop is the serial or the traced packet loop. run executes
// packets, cycling over the points, for about d (at least one packet).
type packetLoop interface {
	run(r *runner, d time.Duration)
	samples() int
	// minSamples is how many packets the loop's percentiles need.
	minSamples() int
}

// serialLoop times RunPacket one packet at a time and accumulates the
// heap allocation and the program's own per-stage histograms over its
// packets. A probe runs between packets; probeMS[i] is the slower of the
// two probes either side of packet latMS[i].
type serialLoop struct {
	plans          []*experiments.PSRPlan
	oks            [][]bool
	next           int
	latMS          []float64
	probeMS        []float64
	bytes, mallocs uint64
	stages         map[string]float64
}

// stageKeys are the cpr_sweep_stage_seconds sums serialLoop accumulates;
// the observe stage includes the decision.
var stageKeys = []string{"tx", "observe", "train", "decode"}

func newSerialLoop(plans []*experiments.PSRPlan) *serialLoop {
	l := &serialLoop{plans: plans, stages: make(map[string]float64)}
	for _, p := range plans {
		l.oks = append(l.oks, make([]bool, len(p.Receivers())))
	}
	return l
}

func (l *serialLoop) samples() int    { return len(l.latMS) }
func (l *serialLoop) minSamples() int { return minSamplesFor(0.9) }

func (l *serialLoop) run(r *runner, d time.Duration) {
	var m0, m1 runtime.MemStats
	stages0 := obs.Snapshot()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	before := probe()
	for first := true; first || time.Since(start) < d; first = false {
		pi, pkt := l.next%len(l.plans), l.next/len(l.plans)
		l.next++
		t0 := time.Now()
		err := l.plans[pi].RunPacket(pkt, l.oks[pi])
		dt := time.Since(t0)
		after := probe()
		r.attempted++
		if err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "perfbench: packet %d of point %d: %v\n", pkt, pi, err)
			before = after
			continue
		}
		l.latMS = append(l.latMS, float64(dt)/1e6)
		l.probeMS = append(l.probeMS, float64(max(before, after))/1e6)
		before = after
	}
	runtime.ReadMemStats(&m1)
	stages1 := obs.Snapshot()
	l.bytes += m1.TotalAlloc - m0.TotalAlloc
	l.mallocs += m1.Mallocs - m0.Mallocs
	for _, st := range stageKeys {
		k := `cpr_sweep_stage_seconds_sum{stage="` + st + `"}`
		l.stages[st] += stages1[k] - stages0[k]
	}
}

// logStages logs the program's own per-stage split of the loop's
// packets, for comparison with the traced split.
func (l *serialLoop) logStages() {
	n := float64(max(len(l.latMS), 1))
	fmt.Fprintf(os.Stderr, "cpr_sweep_stage_seconds per packet (ms):")
	for _, st := range stageKeys {
		fmt.Fprintf(os.Stderr, " %s %.3f", st, l.stages[st]*1e3/n)
	}
	fmt.Fprintln(os.Stderr)
}

// tracedLoop replays packets with spans (tracedPacket), each next to an
// untraced RunPacket of the same packet whose outcomes it must match.
type tracedLoop struct {
	plans       []*experiments.PSRPlan
	segs        [][]int
	t           *tracer
	next        int
	okRef, okTr []bool
	layers      map[string][]float64 // per-packet values of each layer metric
	untracedMS  []float64
	tracedMS    []float64
}

func newTracedLoop(plans []*experiments.PSRPlan, segs [][]int) *tracedLoop {
	maxArms := 0
	for _, p := range plans {
		maxArms = max(maxArms, len(p.Receivers()))
	}
	return &tracedLoop{plans: plans, segs: segs, t: newTracer(),
		okRef: make([]bool, maxArms), okTr: make([]bool, maxArms), layers: make(map[string][]float64)}
}

func (l *tracedLoop) samples() int    { return len(l.tracedMS) }
func (l *tracedLoop) minSamples() int { return minSamplesFor(0.5) }

func (l *tracedLoop) run(r *runner, d time.Duration) {
	t := l.t
	start := time.Now()
	for first := true; first || time.Since(start) < d; first = false {
		i := l.next
		l.next++
		pi, pkt := i%len(l.plans), i/len(l.plans)
		p := l.plans[pi]
		arms := len(p.Receivers())
		okRef, okTr := l.okRef[:arms], l.okTr[:arms]
		r.attempted++
		var errRef, errTr error
		var dt time.Duration
		base := len(t.spans)
		t.packet = int32(i)
		runRef := func() {
			t0 := time.Now()
			errRef = p.RunPacket(pkt, okRef)
			dt = time.Since(t0)
		}
		// Alternate which runs first so neither side always finds the
		// caches the other just warmed.
		if i%2 == 0 {
			runRef()
			errTr = tracedPacket(t, p, l.segs[pi], pkt, okTr)
		} else {
			errTr = tracedPacket(t, p, l.segs[pi], pkt, okTr)
			runRef()
		}
		if errRef != nil || errTr != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "perfbench: packet %d of point %d: %v / traced: %v\n", pkt, pi, errRef, errTr)
			continue
		}
		for a := range arms {
			if okRef[a] != okTr[a] {
				r.fail("packet %d of point %d, arm %s: traced replica decided %v, RunPacket %v",
					pkt, pi, p.Receivers()[a], okTr[a], okRef[a])
			}
		}
		l.untracedMS = append(l.untracedMS, float64(dt)/1e6)
		root := t.spans[base]
		l.tracedMS = append(l.tracedMS, float64(root.End-root.Start)/1e6)
		for n, v := range packetLayers(t.spans[base:], base) {
			l.layers[n] = append(l.layers[n], v)
		}
	}
}

// tracedMetrics returns the per-layer metrics: per-packet figures from
// the traced loop, and the service layers' figures from the sweeps. It
// writes the spans to .bench_build/spans/.
func (r *runner) tracedMetrics(l *tracedLoop, st sweepStats, ds distStats) map[string]metric {
	out := make(map[string]metric)
	for n, unit := range layerUnits {
		v := median(l.layers[n])
		if unit == "KiB" || unit == "count" {
			// The runtime counts small objects when a span of them is
			// refilled, so one packet's layer gets them in lumps; means
			// add up to the packet's allocation, medians do not.
			v = mean(l.layers[n])
		}
		out[n] = metric{v, unit}
	}
	out["sweep.submit_ms"] = metric{median(st.submitMS), "ms"}
	// The sweep's serial busy time is its packet count at the untraced
	// packets' mean cost.
	busyS := mean(l.untracedMS) / 1e3 * float64(r.e.plan.TotalPackets())
	out["sweep.idle_frac"] = metric{1 - busyS/float64(r.e.workers)/median(st.wallS), "ratio"}
	out["dist.leases"] = metric{ds.leasesPerSweep, "count"}
	out["dist.lease_expiries"] = metric{float64(ds.expiries), "count"}
	out["dist.requeued_points"] = metric{float64(ds.requeued), "count"}
	out["dist.worker_retries"] = metric{float64(ds.retries), "count"}
	out["store.replay_ms"] = metric{medianOrZero(ds.replayMS), "ms"}
	out["store.bytes_per_point"] = metric{ds.bytesPerPoint, "bytes"}
	out["wifi.pool_warm_ms"] = metric{float64(r.e.poolWarm) / 1e6, "ms"}
	out["trace.packet_ms"] = metric{median(l.tracedMS), "ms"}
	out["trace.overhead_pct"] = metric{(median(l.tracedMS)/median(l.untracedMS) - 1) * 100, "%"}
	out["failed_ratio"] = metric{float64(r.failed) / float64(max(r.attempted, 1)), "ratio"}

	var layersMS float64
	for n, unit := range layerUnits {
		switch unit {
		case "ms":
			layersMS += out[n].Value
		case "us":
			layersMS += out[n].Value / 1e3
		}
	}
	fmt.Fprintf(os.Stderr, "traced %d packets (%d spans); untraced p50 %.3f ms, traced p50 %.3f ms; layer medians sum to %.3f ms\n",
		len(l.tracedMS), len(l.t.spans), median(l.untracedMS), median(l.tracedMS), layersMS)
	dir := filepath.Join(".bench_build", "spans")
	path := filepath.Join(dir, r.e.w.name+".jsonl")
	err := os.MkdirAll(dir, 0o755)
	if err == nil {
		err = l.t.write(path)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
	} else {
		fmt.Fprintf(os.Stderr, "spans written to %s\n", path)
	}
	return out
}
func medianOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}
