package core

import (
	"fmt"
	"math"

	"repro/internal/dsp"
	"repro/internal/modem"
	"repro/internal/ofdm"
	"repro/internal/rx"
)

// NaiveDecider is the simple statistical decoder of §3.3 (the authors'
// earlier ShiftFFT, Eq. 3): it picks the lattice point minimising the
// summed Euclidean deviation of the received values over all segments,
// l* = argmin_l Σ_j |X̂ʲ − l|. The paper uses it to motivate CPRecycle's
// probabilistic model; it works at mild interference and collapses below
// −10 dB SIR.
type NaiveDecider struct {
	// Segments lists the CP offsets to combine.
	Segments []int

	out []int
}

// DecideSymbol implements rx.SymbolDecider. The decisions live in the
// decider's scratch, overwritten by its next call.
func (n *NaiveDecider) DecideSymbol(f *rx.Frame, symIdx int, cons *modem.Constellation) ([]int, error) {
	if len(n.Segments) == 0 {
		return nil, fmt.Errorf("core: naive decoder has no segments")
	}
	obs, err := f.ObserveSegments(symIdx, n.Segments)
	if err != nil {
		return nil, err
	}
	nSC := f.DataSubcarrierCount()
	if len(n.out) != nSC {
		n.out = make([]int, nSC)
	}
	out := n.out
	for i := 0; i < nSC; i++ {
		best, bestSum := 0, math.Inf(1)
		for li, l := range cons.Points() {
			sum := 0.0
			for j := range obs {
				sum += dsp.Abs(obs[j].Data[i] - l)
			}
			if sum < bestSum {
				bestSum, best = sum, li
			}
		}
		out[i] = best
	}
	return out, nil
}

// OracleDecider is the impractical upper bound of §3.2: it observes the
// interference in isolation (the simulator provides the interference-plus-
// noise waveform that the paper obtains "by muting the sender") and, for
// every subcarrier of every symbol, picks the FFT segment with the lowest
// interference power before slicing to the nearest lattice point.
type OracleDecider struct {
	// InterferenceOnly is the received stream with the sender muted,
	// sample-aligned with the frame's stream.
	InterferenceOnly []complex128
	// Segments lists the CP offsets to choose from.
	Segments []int

	demod *ofdm.Demodulator
	ip    []dsp.Planar // reused interference window buffers
	sel   []int        // data-subcarrier bins, for sparse slides
	out   []int
}

// DecideSymbol implements rx.SymbolDecider.
func (o *OracleDecider) DecideSymbol(f *rx.Frame, symIdx int, cons *modem.Constellation) ([]int, error) {
	if len(o.Segments) == 0 {
		return nil, fmt.Errorf("core: oracle has no segments")
	}
	if o.demod == nil || o.demod.Grid() != f.Grid() {
		d, err := ofdm.NewDemodulator(f.Grid())
		if err != nil {
			return nil, err
		}
		o.demod = d
		o.sel = o.sel[:0]
		for _, sc := range ofdm.DataSubcarriers() {
			o.sel = append(o.sel, f.Grid().Bin(sc))
		}
	}
	obs, err := f.ObserveSegments(symIdx, o.Segments)
	if err != nil {
		return nil, err
	}
	symStart := f.DataSymbolStart(symIdx)
	// Interference power per (segment, bin). Equalisation scales every
	// segment of a subcarrier identically, so raw bin power preserves the
	// per-subcarrier ordering the oracle needs. The windows come from the
	// planar batch sliding-DFT path, reusing the decider's buffers.
	ip, err := o.demod.Segments(o.InterferenceOnly, symStart, o.Segments, o.sel, o.ip)
	if err != nil {
		return nil, fmt.Errorf("core: oracle interference window: %w", err)
	}
	o.ip = ip
	g := f.Grid()
	scs := ofdm.DataSubcarriers()
	if len(o.out) != len(scs) {
		o.out = make([]int, len(scs))
	}
	out := o.out
	for i, sc := range scs {
		bin := g.Bin(sc)
		bestJ, bestP := 0, math.Inf(1)
		for j := range o.Segments {
			vr, vi := ip[j].Re[bin], ip[j].Im[bin]
			p := vr*vr + vi*vi
			if p < bestP {
				bestP, bestJ = p, j
			}
		}
		out[i] = cons.Nearest(obs[bestJ].Data[i])
	}
	return out, nil
}

// allBins selects every bin of an n-point window: Fig. 4 plots the whole
// band.
func allBins(n int) []int {
	all := make([]int, n)
	for k := range all {
		all[k] = k
	}
	return all
}

// binPower is the power of window w at bin k.
func binPower(w dsp.Planar, k int) float64 { return w.Re[k]*w.Re[k] + w.Im[k]*w.Im[k] }

// SegmentInterferencePower measures, for the OFDM symbol starting at
// symStart in an interference-only stream, the interference power at every
// (segment, bin): the quantity plotted in Fig. 4a/4b. Powers are in linear
// units; convert with dsp.DB. The windows come from the batch sliding-DFT
// path (one seed FFT plus incremental updates), like every receiver path.
func SegmentInterferencePower(interference []complex128, g ofdm.Grid, symStart int, segments []int) ([][]float64, error) {
	d, err := ofdm.NewDemodulator(g)
	if err != nil {
		return nil, err
	}
	segBins, err := d.Segments(interference, symStart, segments, allBins(g.NFFT), nil)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, len(segments))
	for j, w := range segBins {
		row := make([]float64, w.Len())
		for k := range row {
			row[k] = binPower(w, k)
		}
		out[j] = row
	}
	return out, nil
}

// OracleSpectrum returns, per bin, the minimum over segments of the
// interference power (what an Oracle receiver leaves behind) and the
// standard window's interference power, averaged over count symbols —
// the two curves of Fig. 4a.
func OracleSpectrum(interference []complex128, g ofdm.Grid, firstSymStart, count int, segments []int) (oracle, standard []float64, err error) {
	d, err := ofdm.NewDemodulator(g)
	if err != nil {
		return nil, nil, err
	}
	all := allBins(g.NFFT)
	var win []dsp.Planar // one window set, reused by every symbol
	oracle = make([]float64, g.NFFT)
	standard = make([]float64, g.NFFT)
	for s := 0; s < count; s++ {
		if win, err = d.Segments(interference, firstSymStart+s*g.SymLen(), segments, all, win); err != nil {
			return nil, nil, err
		}
		for bin := 0; bin < g.NFFT; bin++ {
			minP := math.Inf(1)
			for _, w := range win {
				if p := binPower(w, bin); p < minP {
					minP = p
				}
			}
			oracle[bin] += minP
			standard[bin] += binPower(win[len(win)-1], bin) // last segment = standard window
		}
	}
	for bin := 0; bin < g.NFFT; bin++ {
		oracle[bin] /= float64(count)
		standard[bin] /= float64(count)
	}
	return oracle, standard, nil
}
