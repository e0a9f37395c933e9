package experiments

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/interference"
	"repro/internal/wifi"
)

// aciPlan is one point of Fig 8's ACI sweep (the aci-fresh benchmark
// workload's layout): QPSK 1/2 at its operating SNR, an adjacent-channel
// interferer three 802.11 channels away at sirDB, no waveform pool.
func aciPlan(tb testing.TB, sirDB float64, psduBytes, packets, intra int, arms []ReceiverKind) *PSRPlan {
	tb.Helper()
	m, err := wifi.MCSByName("QPSK 1/2")
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := PlanPSR(LinkConfig{
		Scenario:     ACIScenario(sirDB, interference.Channel80211Offset(3), OperatingSNR(m.Name)),
		MCS:          m,
		PSDUBytes:    psduBytes,
		Packets:      packets,
		Seed:         1,
		IntraWorkers: intra,
		Receivers:    arms,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return plan
}

// TestRunPacketConcurrentSharedPlan runs RunPacket from several goroutines
// on one shared plan, each walking the packets in a different order, and
// requires every outcome to match a serial pass. The goroutines draw
// composites, transmit scratch and decode buffers from the shared pools
// concurrently, and the Oracle arm reads the pooled interference-only
// stream, so a buffer returned to a pool while still in use shows up as
// a mismatch here or as a report under -race.
func TestRunPacketConcurrentSharedPlan(t *testing.T) {
	const packets = 6
	plan := aciPlan(t, -6, 120, packets, 2, []ReceiverKind{Standard, Oracle, CPRecycle})
	arms := len(plan.Receivers())
	want := make([][]bool, packets)
	for pkt := range want {
		want[pkt] = make([]bool, arms)
		if err := plan.RunPacket(pkt, want[pkt]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ok := make([]bool, arms)
			for i := 0; i < packets; i++ {
				pkt := (i*(g+1) + g) % packets
				if err := plan.RunPacket(pkt, ok); err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(ok, want[pkt]) {
					t.Errorf("goroutine %d packet %d: outcomes %v, serial pass %v", g, pkt, ok, want[pkt])
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkRunPacketACI times whole packets — synthesis, the hard
// standard and cprecycle arms, Viterbi — at the aci-fresh workload's
// -6 dB point with 400-byte PSDUs and serial decode.
func BenchmarkRunPacketACI(b *testing.B) {
	plan := aciPlan(b, -6, 400, 64, 1, []ReceiverKind{Standard, CPRecycle})
	ok := make([]bool, len(plan.Receivers()))
	b.ReportAllocs()
	pkt := 0
	for b.Loop() {
		if err := plan.RunPacket(pkt%plan.Packets(), ok); err != nil {
			b.Fatal(err)
		}
		pkt++
	}
}

// BenchmarkRunPacketSoft times whole packets at the aci-pooled-soft
// workload's −10 dB point: the ablation-soft layout (ACI, 16-QAM 1/2),
// 400-byte PSDUs, interferer tiles from a waveform pool, and only the
// standard-soft and cprecycle-soft arms, so the soft decisions and the
// float Viterbi decode dominate. Serial decode.
func BenchmarkRunPacketSoft(b *testing.B) {
	sp, err := NewSweepPlan(SweepRequest{
		Experiment: "ablation-soft",
		Options:    Options{Packets: 64, PSDUBytes: 400, Seed: 1},
		Axis:       []float64{-10},
		Receivers:  []ReceiverKind{StandardSoft, CPRecycleSoft},
		Pool:       wifi.NewWaveformPool(wifi.DefaultPoolSize, 1),
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := sp.Points[0].Cfg
	cfg.IntraWorkers = 1
	plan, err := PlanPSR(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ok := make([]bool, len(plan.Receivers()))
	// Encode the pool's waveforms before timing starts.
	if err := plan.RunPacket(0, ok); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	pkt := 0
	for b.Loop() {
		if err := plan.RunPacket(pkt%plan.Packets(), ok); err != nil {
			b.Fatal(err)
		}
		pkt++
	}
}
