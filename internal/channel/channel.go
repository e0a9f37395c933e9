// Package channel models the wireless propagation effects between the
// simulated transmitters and the receiver: tapped-delay-line multipath,
// additive white Gaussian noise, carrier frequency offset, oscillator phase
// noise, and power scaling to calibrated SNR/SIR operating points.
//
// These models replace the USRP testbed the paper measures on:
// CPRecycle only observes post-ADC baseband samples, so a sample-accurate
// baseband simulation exercises the identical receiver code paths.
package channel

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/dsp"
)

// Multipath is a discrete tapped-delay-line channel. Taps[k] multiplies the
// input delayed by k samples; Taps[0] is the line-of-sight tap.
type Multipath struct {
	Taps []complex128
}

// NewMultipath returns a channel with the given taps. An empty tap list is
// replaced by a perfect single-tap channel.
func NewMultipath(taps []complex128) *Multipath {
	if len(taps) == 0 {
		taps = []complex128{1}
	}
	cp := make([]complex128, len(taps))
	copy(cp, taps)
	return &Multipath{Taps: cp}
}

// Identity returns the distortion-free single-tap channel.
func Identity() *Multipath { return NewMultipath(nil) }

// Indoor2Tap returns the default indoor profile used throughout the
// experiments: a dominant LOS tap plus one reflection one sample later
// (50 ns at 20 Msps — the nanosecond-scale delay spread the paper cites
// from indoor measurement studies [18,29,55]), normalised to unit energy.
func Indoor2Tap() *Multipath {
	taps := []complex128{1, complex(0.3, 0.1)}
	return normalized(taps)
}

// Exponential returns an nTaps-tap channel with exponentially decaying
// power profile (decay per tap in dB) and random uniform phases, normalised
// to unit energy. Used to sweep delay spread for the Fig. 14 experiment.
func Exponential(r *dsp.Rand, nTaps int, decayDB float64) *Multipath {
	if nTaps < 1 {
		nTaps = 1
	}
	taps := make([]complex128, nTaps)
	for k := range taps {
		amp := math.Sqrt(dsp.FromDB(-decayDB * float64(k)))
		taps[k] = cmplx.Rect(amp, 2*math.Pi*r.Float64())
	}
	return normalized(taps)
}

func normalized(taps []complex128) *Multipath {
	e := dsp.Energy(taps)
	if e > 0 {
		dsp.Scale(taps, 1/math.Sqrt(e))
	}
	return &Multipath{Taps: taps}
}

// DelaySpread returns the channel's maximum excess delay in samples (the
// number of cyclic-prefix samples rendered ISI-affected).
func (m *Multipath) DelaySpread() int {
	last := 0
	for k, t := range m.Taps {
		if cmplx.Abs(t) > 1e-12 {
			last = k
		}
	}
	return last
}

// Apply convolves x with the channel taps, returning len(x) samples (the
// tail beyond the input length is truncated, matching a continuously
// running receiver's view). The direct form writes each output sample
// once, accumulating taps in the same order as dsp.Conv (identical
// floating-point results), and is much faster for the few-tap channels the
// experiments use than materialising the full convolution.
func (m *Multipath) Apply(x []complex128) []complex128 {
	taps := m.Taps
	out := make([]complex128, len(x))
	for p := range out {
		kmax := len(taps) - 1
		if kmax > p {
			kmax = p
		}
		var acc complex128
		for k := kmax; k >= 0; k-- {
			acc += x[p-k] * taps[k]
		}
		out[p] = acc
	}
	return out
}

// FrequencyResponse returns the channel's frequency response on an n-point
// FFT grid.
func (m *Multipath) FrequencyResponse(n int) []complex128 {
	h := make([]complex128, n)
	copy(h, m.Taps)
	if len(m.Taps) > n {
		panic(fmt.Sprintf("channel: %d taps exceed FFT size %d", len(m.Taps), n))
	}
	p := dsp.MustPlanFor(n)
	p.Forward(h)
	return h
}

// AWGN adds complex Gaussian noise of the given total power (variance) to
// x in place and returns x.
func AWGN(r *dsp.Rand, x []complex128, noisePower float64) []complex128 {
	if noisePower <= 0 {
		return x
	}
	s := math.Sqrt(noisePower / 2)
	for i := range x {
		x[i] += complex(r.NormFloat64()*s, r.NormFloat64()*s)
	}
	return x
}

// ApplyCFO rotates x in place by a carrier frequency offset expressed as a
// fraction of the subcarrier spacing on an n-point grid (cfo=0.01 ≈ 3 kHz
// at 802.11's 312.5 kHz spacing). startSample keeps the rotation
// phase-continuous across blocks.
func ApplyCFO(x []complex128, cfo float64, n int, startSample int) {
	dsp.FreqShift(x, cfo, n, startSample)
}

// ApplyPhaseNoise applies a Wiener phase-noise process with the given
// per-sample phase increment standard deviation (radians) to x in place.
func ApplyPhaseNoise(r *dsp.Rand, x []complex128, sigma float64) {
	if sigma <= 0 {
		return
	}
	phase := 0.0
	for i := range x {
		phase += r.NormFloat64() * sigma
		s, c := math.Sincos(phase)
		x[i] *= complex(c, s)
	}
}

// ScaleToPower scales x in place so its average power equals target, and
// returns the applied gain. A zero-power input is returned unchanged with
// gain 0.
func ScaleToPower(x []complex128, target float64) float64 {
	p := dsp.Power(x)
	if p <= 0 {
		return 0
	}
	g := math.Sqrt(target / p)
	dsp.Scale(x, g)
	return g
}

// GainForSIR returns the gain to apply to an interference waveform of power
// interfPower so that the signal-to-interference ratio against a signal of
// power sigPower equals sirDB.
func GainForSIR(sigPower, interfPower, sirDB float64) float64 {
	if interfPower <= 0 {
		return 0
	}
	targetInterf := sigPower / dsp.FromDB(sirDB)
	return math.Sqrt(targetInterf / interfPower)
}

// NoisePowerForSNR returns the noise power that yields snrDB against a
// signal of power sigPower.
func NoisePowerForSNR(sigPower, snrDB float64) float64 {
	return sigPower / dsp.FromDB(snrDB)
}
