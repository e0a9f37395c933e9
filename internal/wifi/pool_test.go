package wifi

import (
	"testing"

	"repro/internal/channel"
	"repro/internal/dsp"
	"repro/internal/ofdm"
)

func TestPPDULenMatchesBuild(t *testing.T) {
	g := ofdm.WideGrid(64, 16, 4, 112)
	for _, name := range []string{"BPSK 1/2", "16-QAM 1/2", "64-QAM 3/4"} {
		m, err := MCSByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{5, 100, 400} {
			ppdu, err := BuildPPDU(TxConfig{Grid: g, MCS: m}, make([]byte, n))
			if err != nil {
				t.Fatal(err)
			}
			if got := PPDULen(g, m, n); got != len(ppdu.Samples) {
				t.Errorf("%s/%dB: PPDULen = %d, built = %d", name, n, got, len(ppdu.Samples))
			}
		}
	}
}

// TestPoolDeterministicAcrossInstances pins that pool contents depend
// only on (seed, size, key, index) — two pools built in different
// processes (here: instances) serve identical waveforms, the property
// that makes pooled sweeps reproducible.
func TestPoolDeterministicAcrossInstances(t *testing.T) {
	g := ofdm.WideGrid(64, 16, 4, 112)
	m, err := MCSByName("16-QAM 1/2")
	if err != nil {
		t.Fatal(err)
	}
	p1 := NewWaveformPool(4, 9)
	p2 := NewWaveformPool(4, 9)
	r1, r2 := dsp.NewRand(3), dsp.NewRand(3)
	for i := 0; i < 8; i++ {
		w1, err := p1.Pick(r1, g, m)
		if err != nil {
			t.Fatal(err)
		}
		w2, err := p2.Pick(r2, g, m)
		if err != nil {
			t.Fatal(err)
		}
		if &w1[0] == &w2[0] {
			t.Fatal("pools share storage")
		}
		if dsp.MaxAbsDiff(w1, w2) != 0 {
			t.Fatalf("pick %d differs across identically-seeded pools", i)
		}
	}
	// A different pool seed yields different waveforms.
	p3 := NewWaveformPool(4, 10)
	w1, _ := p1.Pick(dsp.NewRand(3), g, m)
	w3, err := p3.Pick(dsp.NewRand(3), g, m)
	if err != nil {
		t.Fatal(err)
	}
	if dsp.MaxAbsDiff(w1, w3) == 0 {
		t.Fatal("pool seed has no effect")
	}
}

// TestPoolSingleDraw pins the RNG contract: Pick consumes exactly one
// Intn draw from the packet RNG — what keeps engine shards and direct
// runs aligned.
func TestPoolSingleDraw(t *testing.T) {
	g := ofdm.Native80211Grid()
	m, err := MCSByName("QPSK 1/2")
	if err != nil {
		t.Fatal(err)
	}
	p := NewWaveformPool(8, 1)
	ra, rb := dsp.NewRand(42), dsp.NewRand(42)
	if _, err := p.Pick(ra, g, m); err != nil {
		t.Fatal(err)
	}
	rb.Intn(p.Size())
	for i := 0; i < 4; i++ {
		if a, b := ra.Intn(1_000_003), rb.Intn(1_000_003); a != b {
			t.Fatalf("draw %d: Pick consumed more than one Intn (%d vs %d)", i, a, b)
		}
	}
}

// TestPickFilteredMatchesApply pins that the cached channel-filtered
// variant equals filtering the picked waveform directly.
func TestPickFilteredMatchesApply(t *testing.T) {
	g := ofdm.Native80211Grid()
	m, err := MCSByName("QPSK 1/2")
	if err != nil {
		t.Fatal(err)
	}
	ch := channel.Indoor2Tap()
	p := NewWaveformPool(3, 5)
	for i := 0; i < 6; i++ {
		seed := int64(100 + i)
		plain, err := p.Pick(dsp.NewRand(seed), g, m)
		if err != nil {
			t.Fatal(err)
		}
		filtered, err := p.PickFiltered(dsp.NewRand(seed), g, m, ch)
		if err != nil {
			t.Fatal(err)
		}
		if dsp.MaxAbsDiff(filtered, ch.Apply(plain)) != 0 {
			t.Fatalf("pick %d: filtered variant differs from Apply", i)
		}
		// nil channel returns the unfiltered waveform.
		raw, err := p.PickFiltered(dsp.NewRand(seed), g, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		if dsp.MaxAbsDiff(raw, plain) != 0 {
			t.Fatalf("pick %d: nil-channel variant differs from Pick", i)
		}
	}
}

// TestPickFilteredCacheHitAllocs pins that a cached channel-filtered pick
// builds its tap key without allocating.
func TestPickFilteredCacheHitAllocs(t *testing.T) {
	g := ofdm.Native80211Grid()
	m, err := MCSByName("QPSK 1/2")
	if err != nil {
		t.Fatal(err)
	}
	ch := channel.Indoor2Tap()
	p := NewWaveformPool(1, 5)
	r := dsp.NewRand(1)
	if _, err := p.PickFiltered(r, g, m, ch); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(50, func() {
		if _, err := p.PickFiltered(r, g, m, ch); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("cached PickFiltered allocates %v times per call", a)
	}
}
