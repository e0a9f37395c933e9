package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/experiments"
	"repro/internal/modem"
	"repro/internal/ofdm"
	"repro/internal/rx"
	"repro/internal/wifi"
)

// span is one timed call into a layer of the packet path. Start and End
// are nanoseconds since the tracer's epoch; the alloc fields are the
// runtime's cumulative heap-allocation counters at start and end.
type span struct {
	Name    string
	Packet  int32 // traced packet id, shared by every span of one packet
	Parent  int32 // index of the enclosing span; -1 for a packet root
	Start   int64
	End     int64
	Bytes0  uint64
	Bytes1  uint64
	Allocs0 uint64
	Allocs1 uint64
}

// tracer records spans in memory; write dumps them once the run ends.
type tracer struct {
	epoch   time.Time
	spans   []span
	packet  int32
	samples [2]metrics.Sample
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
	t.samples[0].Name = "/gc/heap/allocs:bytes"
	t.samples[1].Name = "/gc/heap/allocs:objects"
	return t
}

func (t *tracer) heap() (bytes, allocs uint64) {
	metrics.Read(t.samples[:])
	return t.samples[0].Value.Uint64(), t.samples[1].Value.Uint64()
}

// begin opens a span under parent and returns its index. The span slice
// grows before the counters are read, so its own growth is never charged
// to the new span.
func (t *tracer) begin(name string, parent int32) int32 {
	if len(t.spans) == cap(t.spans) {
		t.spans = slices.Grow(t.spans, cap(t.spans))
	}
	b, n := t.heap()
	t.spans = append(t.spans, span{Name: name, Packet: t.packet, Parent: parent,
		Bytes0: b, Allocs0: n, Start: int64(time.Since(t.epoch))})
	return int32(len(t.spans) - 1)
}

// end closes span id: the clock is read before the counters, so the
// counter read is outside the timed interval.
func (t *tracer) end(id int32) {
	e := int64(time.Since(t.epoch))
	b, n := t.heap()
	s := &t.spans[id]
	s.End, s.Bytes1, s.Allocs1 = e, b, n
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		rec := struct {
			ID      int    `json:"id"`
			Name    string `json:"name"`
			Packet  int32  `json:"packet"`
			Parent  int32  `json:"parent"`
			StartNS int64  `json:"start_ns"`
			EndNS   int64  `json:"end_ns"`
			Bytes   uint64 `json:"alloc_bytes"`
			Allocs  uint64 `json:"allocs"`
		}{i, s.Name, s.Packet, s.Parent, s.Start, s.End, s.Bytes1 - s.Bytes0, s.Allocs1 - s.Allocs0}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is the part of [start, end) that no child interval covers.
// Children are clipped to the parent; overlapping children count once.
func selfTime(start, end int64, children [][2]int64) int64 {
	iv := slices.Clone(children)
	slices.SortFunc(iv, func(a, b [2]int64) int {
		switch {
		case a[0] < b[0]:
			return -1
		case a[0] > b[0]:
			return 1
		}
		return 0
	})
	var covered int64
	cur := start // everything before cur is already counted
	for _, c := range iv {
		s, e := max(c[0], cur), min(c[1], end)
		if s < e {
			covered += e - s
			cur = e
		}
	}
	return end - start - covered
}

// layerSelf is one span name's self cost within one packet.
type layerSelf struct {
	ns     int64
	bytes  uint64
	allocs uint64
	count  int
}

// selfCosts sums, per span name, the self time and self allocation of
// spans (one packet's spans, parents before children, Parent indexing the
// tracer's full slice from base). Self allocation is a span's counter
// delta minus its children's: calls are serial, so children's deltas lie
// inside the parent's.
func selfCosts(spans []span, base int) map[string]*layerSelf {
	kids := make([][][2]int64, len(spans))
	var kidBytes, kidAllocs = make([]uint64, len(spans)), make([]uint64, len(spans))
	for i, s := range spans {
		if p := int(s.Parent) - base; s.Parent >= 0 && p >= 0 && p < len(spans) && p != i {
			kids[p] = append(kids[p], [2]int64{s.Start, s.End})
			kidBytes[p] += s.Bytes1 - s.Bytes0
			kidAllocs[p] += s.Allocs1 - s.Allocs0
		}
	}
	out := make(map[string]*layerSelf)
	for i, s := range spans {
		l := out[s.Name]
		if l == nil {
			l = &layerSelf{}
			out[s.Name] = l
		}
		l.ns += selfTime(s.Start, s.End, kids[i])
		l.bytes += (s.Bytes1 - s.Bytes0) - kidBytes[i]
		l.allocs += (s.Allocs1 - s.Allocs0) - kidAllocs[i]
		l.count++
	}
	return out
}

// layerUnits names the per-layer metrics packetLayers derives from one
// packet's spans, with their units.
var layerUnits = func() map[string]string {
	m := map[string]string{
		"interference.run_ms":   "ms",
		"interference.alloc_kb": "KiB",
		"interference.allocs":   "count",
		"rx.frame_us":           "us",
		"core.train_us":         "us",
		"core.alloc_kb":         "KiB",
		"core.symbols":          "count",
		"coding.alloc_kb":       "KiB",
		"experiments.self_us":   "us",
	}
	for _, k := range tracedArms {
		m["core.decide_ms."+k.String()] = "ms"
		m["coding.decode_ms."+k.String()] = "ms"
	}
	return m
}()

// packetLayers derives the per-layer metrics of one traced packet from
// its spans. Every value is a self cost, so the times sum to the packet
// span's duration; experiments.self_us is the residual no layer span
// accounts for.
func packetLayers(spans []span, base int) map[string]float64 {
	costs := selfCosts(spans, base)
	get := func(name string) layerSelf {
		if l := costs[name]; l != nil {
			return *l
		}
		return layerSelf{}
	}
	itf := get("interference.run")
	out := map[string]float64{
		"interference.run_ms":   float64(itf.ns) / 1e6,
		"interference.alloc_kb": float64(itf.bytes) / 1024,
		"interference.allocs":   float64(itf.allocs),
		"rx.frame_us":           float64(get("rx.frame").ns) / 1e3,
		"core.train_us":         float64(get("core.train").ns) / 1e3,
		"experiments.self_us":   float64(get("experiments.packet").ns) / 1e3,
	}
	for _, k := range tracedArms {
		names := armSpans[k]
		decide, decode := get(names.decide), get(names.decode)
		out["core.decide_ms."+k.String()] = float64(decide.ns) / 1e6
		out["coding.decode_ms."+k.String()] = float64(decode.ns) / 1e6
		out["core.alloc_kb"] += float64(decide.bytes) / 1024
		out["core.symbols"] += float64(decide.count)
		out["coding.alloc_kb"] += float64(decode.bytes) / 1024
	}
	return out
}

// timedDecider records a span around every per-symbol decision of the
// wrapped decider.
type timedDecider struct {
	t      *tracer
	d      rx.SymbolDecider
	name   string
	parent int32
}

func (d timedDecider) DecideSymbol(f *rx.Frame, symIdx int, cons *modem.Constellation) ([]int, error) {
	sp := d.t.begin(d.name, d.parent)
	idx, err := d.d.DecideSymbol(f, symIdx, cons)
	d.t.end(sp)
	return idx, err
}

// timedSoftDecider is timedDecider for deciders with soft outputs.
type timedSoftDecider struct {
	timedDecider
	soft rx.SoftSymbolDecider
}

func (d timedSoftDecider) DecideSymbolSoft(f *rx.Frame, symIdx int, cons *modem.Constellation) ([]int, []float64, error) {
	sp := d.t.begin(d.name, d.parent)
	idx, conf, err := d.soft.DecideSymbolSoft(f, symIdx, cons)
	d.t.end(sp)
	return idx, conf, err
}

// timed wraps d so each decision is spanned. The wrapper implements
// rx.SoftSymbolDecider exactly when d does: rx.DecodeDataSoft decodes
// hard when its decider lacks the soft interface, so a wrapper that hid
// it would silently change a soft arm's outcome.
func timed(t *tracer, d rx.SymbolDecider, name string, parent int32) rx.SymbolDecider {
	td := timedDecider{t: t, d: d, name: name, parent: parent}
	if s, ok := d.(rx.SoftSymbolDecider); ok {
		return timedSoftDecider{timedDecider: td, soft: s}
	}
	return td
}

// segmentPlan rebuilds the receiver segment plan PlanPSR computes, from
// the public ofdm.SegmentPlan inputs: NumSegments windows at
// native-sample stride (divided by StrideDivisor), clear of the victim
// channel's delay spread. cfg must be a PlanPSR-normalised configuration.
func segmentPlan(cfg experiments.LinkConfig) ([]int, error) {
	g := cfg.Scenario.VictimGrid()
	q := max(g.NFFT/64, 1)
	stride := q
	if cfg.StrideDivisor > 1 {
		stride = max(q/cfg.StrideDivisor, 1)
	}
	minOff := q
	if ch := cfg.Scenario.Channel; ch != nil {
		minOff = (ch.DelaySpread() + 1) * q
	}
	return ofdm.SegmentPlan(g.CP, stride, cfg.NumSegments, min(minOff, g.CP))
}

// spanNames holds the per-arm span names, built once so tracing a packet
// does not allocate them.
type spanNames struct{ decode, decide string }

var armSpans = func() map[experiments.ReceiverKind]spanNames {
	m := make(map[experiments.ReceiverKind]spanNames)
	for _, k := range tracedArms {
		m[k] = spanNames{decode: "coding.decode." + k.String(), decide: "core.decide." + k.String()}
	}
	return m
}()

// tracedArms are the receiver arms the traced replica rebuilds.
var tracedArms = []experiments.ReceiverKind{
	experiments.Standard, experiments.CPRecycle, experiments.StandardSoft, experiments.CPRecycleSoft,
}

// tracedPacket rebuilds packet pkt of plan p from the public calls
// PSRPlan.RunPacket makes, in the same order and with the same RNG, with
// a span around each call, and writes each arm's packet success into ok
// (indexed like p.Receivers()). segs is segmentPlan(p.Config()).
func tracedPacket(t *tracer, p *experiments.PSRPlan, segs []int, pkt int, ok []bool) error {
	cfg := p.Config()
	if cfg.CoreTweak != nil {
		return fmt.Errorf("perfbench: no traced replica for a CoreTweak plan")
	}
	root := t.begin("experiments.packet", -1)
	defer t.end(root)
	r := dsp.NewRand(cfg.Seed*1_000_003 + int64(pkt))
	psdu := wifi.BuildPSDU(r.Bytes(cfg.PSDUBytes - 4))

	sp := t.begin("interference.run", root)
	c, err := cfg.Scenario.Run(r, psdu, cfg.MCS)
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.begin("rx.frame", root)
	f, err := rx.NewFrame(c.Grid, c.Samples, c.FrameStart)
	t.end(sp)
	if err != nil {
		return err
	}

	var training *core.Training
	for ai, k := range cfg.Receivers {
		names, traced := armSpans[k]
		if !traced {
			return fmt.Errorf("perfbench: no traced replica for receiver %s", k)
		}
		var d rx.SymbolDecider = rx.StandardDecider{}
		if k == experiments.CPRecycle || k == experiments.CPRecycleSoft {
			if training == nil {
				sp = t.begin("core.train", root)
				training, err = core.Train(f, segs)
				t.end(sp)
				if err != nil {
					return err
				}
			}
			if d, err = core.NewReceiverFrom(f, training, core.Config{Segments: slices.Clone(segs)}); err != nil {
				return err
			}
		}
		sp = t.begin(names.decode, root)
		var res rx.Result
		if k == experiments.StandardSoft || k == experiments.CPRecycleSoft {
			res, err = rx.DecodeDataSoft(f, cfg.MCS, len(psdu), timed(t, d, names.decide, sp))
		} else {
			res, err = rx.DecodeData(f, cfg.MCS, len(psdu), timed(t, d, names.decide, sp))
		}
		t.end(sp)
		if err != nil {
			return err
		}
		ok[ai] = res.FCSOK && string(res.PSDU) == string(psdu)
	}
	return nil
}
