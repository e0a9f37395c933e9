package experiments

import (
	"context"
	"testing"

	"repro/internal/wifi"
)

// TestRunPSRSameSeedRegression pins the exact per-arm packet-success
// counts of two fixed-seed measurement points, covering every receiver
// arm, both scenario families (adjacent-channel on the 4× composite grid
// and co-channel on the native grid) and both decode paths (hard and
// soft).
//
// The sliding-DFT receiver rewrite was verified against the original
// one-FFT-per-window implementation with exactly these configurations:
// every count below matched the pre-rewrite code bit for bit (the seed
// window of each symbol is computed identically, and the slid windows
// agree to ~1e-15 — not enough to flip any decision). Any future change
// that alters these counts is changing receiver decisions, not just
// performance, and must be investigated.
func TestRunPSRSameSeedRegression(t *testing.T) {
	m, err := wifi.MCSByName("QPSK 1/2")
	if err != nil {
		t.Fatal(err)
	}
	aci := LinkConfig{
		Scenario:  ACIScenario(-15, 57, OperatingSNR(m.Name)),
		MCS:       m,
		PSDUBytes: 150,
		Packets:   30,
		Seed:      7,
		Receivers: []ReceiverKind{Standard, Naive, Oracle, CPRecycle, CPRecycleKDE, CPRecycleSoft},
	}
	checkPSR(t, "ACI", aci, map[ReceiverKind]int{
		Standard:      10,
		Naive:         17,
		Oracle:        27,
		CPRecycle:     18,
		CPRecycleKDE:  16,
		CPRecycleSoft: 22,
	})

	m2, err := wifi.MCSByName("QPSK 3/4")
	if err != nil {
		t.Fatal(err)
	}
	cci := LinkConfig{
		Scenario:  CCIScenario(8, OperatingSNR(m2.Name)),
		MCS:       m2,
		PSDUBytes: 100,
		Packets:   20,
		Seed:      11,
		Receivers: []ReceiverKind{Standard, CPRecycle, CPRecycleNoTrack},
	}
	checkPSR(t, "CCI", cci, map[ReceiverKind]int{
		Standard:         5,
		CPRecycle:        5,
		CPRecycleNoTrack: 5,
	})
}

// TestRunRangeShardedMatchesRegression proves the property the sweep
// engine relies on: executing a point's packets as arbitrary disjoint
// ranges (PSRPlan.RunRange — the engine's shard primitive) tallies to
// exactly the same pinned counts as the direct RunPSR path, because every
// packet derives its RNG purely from (seed, packet index). The pinned
// values are the same as TestRunPSRSameSeedRegression's ACI point.
func TestRunRangeShardedMatchesRegression(t *testing.T) {
	m, err := wifi.MCSByName("QPSK 1/2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := LinkConfig{
		Scenario:  ACIScenario(-15, 57, OperatingSNR(m.Name)),
		MCS:       m,
		PSDUBytes: 150,
		Packets:   30,
		Seed:      7,
		Receivers: []ReceiverKind{Standard, Naive, Oracle, CPRecycle, CPRecycleKDE, CPRecycleSoft},
	}
	plan, err := PlanPSR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Uneven shards, out of order — the merge must not care.
	shards := [][2]int{{13, 30}, {0, 7}, {7, 13}}
	counts := make([]int, len(cfg.Receivers))
	total := 0
	for _, s := range shards {
		n, err := plan.RunRange(context.Background(), s[0], s[1], counts)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if total != cfg.Packets {
		t.Fatalf("sharded run executed %d packets, want %d", total, cfg.Packets)
	}
	want := map[ReceiverKind]int{
		Standard:      10,
		Naive:         17,
		Oracle:        27,
		CPRecycle:     18,
		CPRecycleKDE:  16,
		CPRecycleSoft: 22,
	}
	for i, k := range cfg.Receivers {
		if counts[i] != want[k] {
			t.Errorf("%s: sharded OK = %d, want %d — sharding changed receiver decisions", k, counts[i], want[k])
		}
	}
}

func checkPSR(t *testing.T, name string, cfg LinkConfig, want map[ReceiverKind]int) {
	t.Helper()
	pts, err := RunPSR(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, p := range pts {
		if p.N != cfg.Packets {
			t.Errorf("%s %s: N = %d, want %d", name, p.Kind, p.N, cfg.Packets)
		}
		if w, ok := want[p.Kind]; !ok || p.OK != w {
			t.Errorf("%s %s: OK = %d, want %d — receiver decisions changed", name, p.Kind, p.OK, w)
		}
	}
}
