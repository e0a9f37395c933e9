package interference

import (
	"math"
	"testing"

	"repro/internal/channel"
	"repro/internal/dsp"
	"repro/internal/wifi"
)

// aciScenario is the Fig 8 layout the aci-fresh benchmark workload runs:
// a 4× composite band, an adjacent-channel interferer three 802.11
// channels away, the indoor two-tap channel on both links, and no
// waveform pool.
func aciScenario(sirDB float64) *Scenario {
	return &Scenario{
		Q:            4,
		VictimCenter: 64,
		SNRdB:        10,
		Channel:      channel.Indoor2Tap(),
		Interferers: []Interferer{
			{CenterOffset: Channel80211Offset(3), SIRdB: sirDB, Channel: channel.Indoor2Tap()},
		},
	}
}

// sameBits reports whether a and b hold bit-identical samples (so a -0
// where +0 was expected counts as a difference).
func sameBits(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// TestRunIntoReuseMatchesRun reuses one Composite across a sequence that
// changes every buffer-shaping input — band factor, channels, interferer
// count, pool, PSDU length up and down — and requires each result to be
// byte-identical to a fresh Run with the same seed, so no stale sample
// from an earlier, larger packet can survive in a reused buffer.
func TestRunIntoReuseMatchesRun(t *testing.T) {
	m := qpsk(t)
	pool := wifi.NewWaveformPool(4, 11)
	type step struct {
		q, interferers, psduBytes int
		channel, pool             bool
	}
	steps := []step{
		{4, 1, 400, true, false},
		{1, 2, 100, false, false},
		{4, 2, 800, true, true},
		{1, 0, 60, true, false},
		{4, 0, 300, false, false},
		{1, 1, 500, true, true},
		{4, 1, 40, false, true},
		{4, 2, 400, true, false},
	}
	var c Composite
	for i, st := range steps {
		s := &Scenario{Q: st.q, SNRdB: 15}
		offset := 0
		if st.q == 4 {
			s.VictimCenter = 128
			offset = Channel80211Offset(3)
		}
		if st.channel {
			s.Channel = channel.Indoor2Tap()
		}
		if st.pool {
			s.Pool = pool
		}
		for k := 0; k < st.interferers; k++ {
			itf := Interferer{CenterOffset: offset * (1 - 2*k), SIRdB: float64(k) - 3}
			if st.channel {
				itf.Channel = channel.Exponential(dsp.NewRand(int64(k)), 3, 4)
			}
			s.Interferers = append(s.Interferers, itf)
		}
		seed := int64(100 + i)
		psdu := wifi.BuildPSDU(dsp.NewRand(seed).Bytes(st.psduBytes - 4))
		want, err := s.Run(dsp.NewRand(seed), psdu, m)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunInto(&c, dsp.NewRand(seed), psdu, m); err != nil {
			t.Fatal(err)
		}
		if !sameBits(c.Samples, want.Samples) || !sameBits(c.InterferenceOnly, want.InterferenceOnly) ||
			!sameBits(c.Victim.Samples, want.Victim.Samples) {
			t.Fatalf("step %d %+v: reused composite differs from a fresh Run", i, st)
		}
		if c.Grid != want.Grid || c.FrameStart != want.FrameStart || string(c.PSDU) != string(want.PSDU) ||
			c.Victim.DataStart != want.Victim.DataStart || c.Victim.NumDataSymbols != want.Victim.NumDataSymbols {
			t.Fatalf("step %d %+v: reused composite metadata differs from a fresh Run", i, st)
		}
	}
}

// TestRunIntoSteadyStateAllocs bounds the allocations of a steady-state
// RunInto on the pool-less Fig 8 layout: once the composite and the
// pooled scratch (BuildPPDUInto's included) are sized, synthesising a
// packet allocates nothing. The race detector makes sync.Pool drop items
// at random, so the bound only holds without it.
func TestRunIntoSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	s := aciScenario(-6)
	m := qpsk(t)
	psdu := wifi.BuildPSDU(dsp.NewRand(1).Bytes(396))
	r := dsp.NewRand(2)
	var c Composite
	if err := s.RunInto(&c, r, psdu, m); err != nil {
		t.Fatal(err)
	}
	a := testing.AllocsPerRun(20, func() {
		if err := s.RunInto(&c, r, psdu, m); err != nil {
			t.Fatal(err)
		}
	})
	if a != 0 {
		t.Fatalf("steady-state RunInto allocates %v times per packet", a)
	}
}

// BenchmarkScenarioRunACI times one packet's synthesis on the Fig 8 ACI
// layout at -6 dB SIR (QPSK 1/2, 400-byte PSDU) through the allocating
// Run, which every traced packet uses.
func BenchmarkScenarioRunACI(b *testing.B) {
	s := aciScenario(-6)
	m := qpsk(b)
	psdu := wifi.BuildPSDU(dsp.NewRand(1).Bytes(396))
	r := dsp.NewRand(2)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := s.Run(r, psdu, m); err != nil {
			b.Fatal(err)
		}
	}
}
