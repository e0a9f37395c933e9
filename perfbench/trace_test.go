package main

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/modem"
	"repro/internal/rx"
	"repro/internal/sweep"
)

func TestSelfTimeClipsAndMergesChildren(t *testing.T) {
	// Children [10,30) and [20,40) overlap (covering 30 once), and
	// [90,120) sticks out of the parent (covering 10).
	got := selfTime(0, 100, [][2]int64{{90, 120}, {20, 40}, {10, 30}})
	if got != 60 {
		t.Errorf("selfTime = %d, want 60", got)
	}
	if got := selfTime(5, 15, nil); got != 10 {
		t.Errorf("childless selfTime = %d, want 10", got)
	}
}

func TestSelfCostsOfNestedSpans(t *testing.T) {
	// A packet root [0,100) with a layer [10,50) that itself holds a
	// decision [20,30), and a second layer [60,70). Parents index the
	// tracer's full slice, in which this packet starts at 7.
	const base = 7
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100, Bytes1: 1000, Allocs1: 50},
		{Name: "layer", Parent: base, Start: 10, End: 50, Bytes0: 100, Bytes1: 600, Allocs0: 5, Allocs1: 30},
		{Name: "decide", Parent: base + 1, Start: 20, End: 30, Bytes0: 200, Bytes1: 300, Allocs0: 10, Allocs1: 12},
		{Name: "layer", Parent: base, Start: 60, End: 70, Bytes0: 700, Bytes1: 800, Allocs0: 35, Allocs1: 40},
	}
	c := selfCosts(spans, base)
	want := map[string]layerSelf{
		"root":   {ns: 100 - 40 - 10, bytes: 1000 - 500 - 100, allocs: 50 - 25 - 5, count: 1},
		"layer":  {ns: (40 - 10) + 10, bytes: (500 - 100) + 100, allocs: (25 - 2) + 5, count: 2},
		"decide": {ns: 10, bytes: 100, allocs: 2, count: 1},
	}
	var total int64
	for name, w := range want {
		if got := c[name]; got == nil || *got != w {
			t.Errorf("%s: got %+v, want %+v", name, got, w)
		}
		total += w.ns
	}
	if total != 100 {
		t.Fatalf("self times sum to %d, want the root's 100", total)
	}
}

// fakeDecider counts which decision method the wrapper reached.
type fakeDecider struct{ hard, soft *int }

func (d fakeDecider) DecideSymbol(*rx.Frame, int, *modem.Constellation) ([]int, error) {
	*d.hard++
	return []int{1}, nil
}

// fakeSoftDecider adds soft outputs to fakeDecider.
type fakeSoftDecider struct{ fakeDecider }

func (d fakeSoftDecider) DecideSymbolSoft(*rx.Frame, int, *modem.Constellation) ([]int, []float64, error) {
	*d.soft++
	return []int{2}, []float64{0.5}, nil
}

func TestTimedForwardsSoftExactlyWhenWrappedDoes(t *testing.T) {
	tr := newTracer()
	var hard, soft int
	if _, ok := timed(tr, fakeDecider{&hard, &soft}, "d", -1).(rx.SoftSymbolDecider); ok {
		t.Error("wrapper of a hard-only decider claims rx.SoftSymbolDecider")
	}
	w, ok := timed(tr, fakeSoftDecider{fakeDecider{&hard, &soft}}, "d", -1).(rx.SoftSymbolDecider)
	if !ok {
		t.Fatal("wrapper of a soft decider lost rx.SoftSymbolDecider")
	}
	if idx, conf, err := w.DecideSymbolSoft(nil, 0, nil); err != nil || idx[0] != 2 || conf[0] != 0.5 {
		t.Errorf("DecideSymbolSoft = %v, %v, %v; want the wrapped decider's outputs", idx, conf, err)
	}
	if idx, err := w.DecideSymbol(nil, 0, nil); err != nil || idx[0] != 1 {
		t.Errorf("DecideSymbol = %v, %v; want the wrapped decider's outputs", idx, err)
	}
	if hard != 1 || soft != 1 || len(tr.spans) != 2 {
		t.Errorf("hard %d, soft %d calls and %d spans; want 1, 1 and 2", hard, soft, len(tr.spans))
	}
}

func TestTracedReplicaMatchesRunPacket(t *testing.T) {
	for _, spec := range []sweep.Spec{
		{Experiment: "fig8", Packets: 6, PSDUBytes: 100, Seed: 3, Axis: []float64{-6}, MCS: []string{"QPSK 1/2"},
			Receivers: []string{"standard", "cprecycle", "standard-soft", "cprecycle-soft"}},
		{Experiment: "delay-spread", Packets: 8, PSDUBytes: 100, Seed: 5, Axis: []float64{5},
			Receivers: []string{"standard", "cprecycle"}},
	} {
		req, err := spec.Request(nil)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := experiments.NewSweepPlan(req)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		for _, pt := range plan.Points {
			cfg := pt.Cfg
			cfg.IntraWorkers = 1
			p, err := experiments.PlanPSR(cfg)
			if err != nil {
				t.Fatal(err)
			}
			segs, err := segmentPlan(p.Config())
			if err != nil {
				t.Fatal(err)
			}
			for pkt := range p.Packets() {
				want := make([]bool, len(p.Receivers()))
				got := make([]bool, len(p.Receivers()))
				if err := p.RunPacket(pkt, want); err != nil {
					t.Fatal(err)
				}
				base := len(tr.spans)
				if err := tracedPacket(tr, p, segs, pkt, got); err != nil {
					t.Fatal(err)
				}
				for a := range want {
					if got[a] != want[a] {
						t.Errorf("%s packet %d arm %s: replica %v, RunPacket %v", spec.Experiment, pkt, p.Receivers()[a], got[a], want[a])
					}
				}
				var selfSum float64
				layers := packetLayers(tr.spans[base:], base)
				for name, unit := range layerUnits {
					switch unit {
					case "ms":
						selfSum += layers[name] * 1e3
					case "us":
						selfSum += layers[name]
					}
				}
				root := tr.spans[base]
				if d := float64(root.End-root.Start) / 1e3; selfSum < d*0.999 || selfSum > d*1.001 {
					t.Errorf("layer self times sum to %.3fµs, packet span is %.3fµs", selfSum, d)
				}
			}
		}
	}
}
