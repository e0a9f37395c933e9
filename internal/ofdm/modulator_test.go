package ofdm

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/dsp"
)

// symbolViaScaledInverse is the reference synthesis chain: the
// interleaved 1/N-scaled inverse FFT, a scale by N, the cyclic-prefix
// copy, then a scale by the caller's gain.
func symbolViaScaledInverse(g Grid, bins []complex128, gain float64) []complex128 {
	n := g.NFFT
	body := append([]complex128(nil), bins...)
	dsp.MustPlanFor(n).Inverse(body)
	dsp.Scale(body, float64(n))
	out := make([]complex128, g.SymLen())
	copy(out, body[n-g.CP:])
	copy(out[g.CP:], body)
	dsp.Scale(out, gain)
	return out
}

// TestSymbolFromBinsIntoMatchesScaledInverse pins the single-gain planar
// synthesis bit for bit (==) to the three-scale interleaved chain, on the
// SIMD butterflies and under ForceScalar.
func TestSymbolFromBinsIntoMatchesScaledInverse(t *testing.T) {
	for _, scalar := range []bool{false, true} {
		dsp.ForceScalar(scalar)
		for _, g := range []Grid{Native80211Grid(), WideGrid(64, 16, 2, 0), WideGrid(64, 16, 4, 64)} {
			m := MustModulator(g)
			r := dsp.NewRand(int64(g.NFFT))
			bins := make([]complex128, g.NFFT)
			out := make([]complex128, g.SymLen())
			for trial := 0; trial < 20; trial++ {
				clear(bins)
				for _, sc := range DataSubcarriers() {
					bins[g.Bin(sc)] = cmplx.Rect(1, 2*math.Pi*r.Float64())
				}
				for _, sc := range PilotSubcarriers() {
					bins[g.Bin(sc)] = PilotValue(trial, sc)
				}
				gain := m.GainForUnitPower(52)
				if trial%2 == 1 {
					gain = 0.1 + 3*r.Float64()
				}
				m.SymbolFromBinsInto(out, bins, gain)
				want := symbolViaScaledInverse(g, bins, gain)
				for i := range want {
					if out[i] != want[i] {
						dsp.ForceScalar(false)
						t.Fatalf("scalar=%v grid %+v trial %d sample %d: got %v want %v", scalar, g, trial, i, out[i], want[i])
					}
				}
			}
		}
	}
	dsp.ForceScalar(false)
}

func TestSymbolFromBinsIntoAllocs(t *testing.T) {
	g := WideGrid(64, 16, 4, 64)
	m := MustModulator(g)
	bins := make([]complex128, g.NFFT)
	bins[g.Bin(7)] = 1
	out := make([]complex128, g.SymLen())
	if a := testing.AllocsPerRun(50, func() { m.SymbolFromBinsInto(out, bins, 0.5) }); a != 0 {
		t.Fatalf("SymbolFromBinsInto allocates %v times per call", a)
	}
}

// TestPreambleIntoMatchesScaledPreamble pins PreambleInto, which reads
// the cached waveform in place, to scaling a Preamble copy, and checks
// that it writes every sample of a dirty buffer.
func TestPreambleIntoMatchesScaledPreamble(t *testing.T) {
	for _, g := range []Grid{Native80211Grid(), WideGrid(64, 16, 4, 64)} {
		m := MustModulator(g)
		const gain = 0.37
		dst := make([]complex128, PreambleLen(g))
		for i := range dst {
			dst[i] = complex(math.NaN(), math.NaN())
		}
		PreambleInto(dst, m, gain)
		for i, v := range Preamble(m) {
			if want := v * complex(gain, 0); dst[i] != want {
				t.Fatalf("grid %+v sample %d: %v, want %v", g, i, dst[i], want)
			}
		}
	}
}
