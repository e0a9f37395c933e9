// Package rx implements the standard IEEE 802.11a/g OFDM receiver chain
// the paper's GNU Radio receiver provides (Fig. 7, minus the CPRecycle
// blocks): Schmidl–Cox packet detection on the short training field,
// coarse/fine carrier-frequency-offset estimation and correction, LTF
// channel estimation, per-segment equalisation with pilot phase tracking,
// ISI-free region detection (§6), and the demap → deinterleave →
// depuncture → Viterbi → descramble → FCS pipeline.
//
// The per-symbol decision step is abstracted behind SymbolDecider so the
// standard minimum-distance slicer, the paper's Naive and Oracle reference
// decoders, and the CPRecycle maximum-likelihood decoder (internal/core)
// all share the surrounding chain.
//
// Frame's multi-segment observation methods (ObserveSegments,
// ObservePreambleAll) demodulate all P windows of a symbol in one batch on
// the planar sliding-DFT path, sparsely at the 52 used subcarrier bins,
// and hand out Frame-owned scratch buffers — the per-symbol hot path
// performs no allocation. StandardDecider's decisions and confidences
// likewise live in the Frame's decision slots, valid until the next
// decision on that Frame. Frame.Bind re-targets a Frame at the next
// packet in place, so a caller that recycles its Frame allocates nothing
// per packet. DecodeData and DecodeDataSoft decide a packet's symbols in
// order on one goroutine, as CPRecycle's continuous model update (§4.3)
// requires: each decoded symbol refines the model for the next.
package rx

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/dsp"
	"repro/internal/ofdm"
)

// SyncResult reports packet detection and CFO estimation.
type SyncResult struct {
	// FrameStart is the estimated sample index of the preamble start.
	FrameStart int
	// CFO is the estimated carrier frequency offset in subcarrier
	// spacings, unambiguous within ±0.5 (from the LTF repetition).
	CFO float64
	// CoarseCFO is the STF-based estimate; diagnostic only, biased under
	// strong interference.
	CoarseCFO float64
	// Metric is the peak normalised autocorrelation metric in [0,1].
	Metric float64
}

// Synchronize detects an 802.11 preamble in samples using the Schmidl–Cox
// autocorrelation over the periodic STF, refines timing by
// cross-correlating with the known LTF, and estimates CFO (coarse from the
// STF period, fine from the LTF repetition). It returns an error when no
// plateau exceeds the detection threshold.
func Synchronize(samples []complex128, g ofdm.Grid) (SyncResult, error) {
	n := g.NFFT
	period := n / 4 // STF periodicity
	win := 2 * n    // long window over the STF for a stable plateau metric
	if len(samples) < ofdm.PreambleLen(g)+g.SymLen() {
		return SyncResult{}, fmt.Errorf("rx: %d samples too short for a preamble", len(samples))
	}

	// Schmidl–Cox style metric M(d) = |P(d)|² / R(d)² with lag = period.
	best, bestAt := 0.0, -1
	limit := len(samples) - win - period
	for d := 0; d < limit; d++ {
		var p complex128
		var r float64
		for t := d; t < d+win; t++ {
			p += samples[t] * cmplx.Conj(samples[t+period])
			v := samples[t+period]
			r += real(v)*real(v) + imag(v)*imag(v)
		}
		if r <= 1e-30 {
			continue
		}
		m := cmplx.Abs(p) / r
		if m > best {
			best, bestAt = m, d
		}
	}
	if bestAt < 0 || best < 0.5 {
		return SyncResult{}, fmt.Errorf("rx: no preamble detected (peak metric %.3f)", best)
	}

	// Coarse CFO from the STF autocorrelation phase: a CFO of ε subcarrier
	// spacings rotates by 2π·ε·period/n over one period. Used only as a
	// sanity reference — under strong interference its phase is biased, so
	// the fine LTF estimate below is authoritative.
	pc := dsp.AutoCorr(samples[bestAt:], period, win)
	coarse := -cmplx.Phase(pc) / (2 * math.Pi * float64(period) / float64(n))

	// Refine timing by cross-correlating with both clean LTF bodies around
	// the plateau (the plateau start is ambiguous within the periodic STF;
	// using both bodies disambiguates body 1 from body 2, since only the
	// true alignment matches 2·n samples).
	mod := ofdm.MustModulator(g)
	ltfBody := mod.Symbol(ofdm.LTFValues())[g.CP:]
	template := append(append([]complex128{}, ltfBody...), ltfBody...)
	bodyOff := n*5/2 + n/2 // offset of first LTF body within the preamble
	searchLo := bestAt - 2*n
	if searchLo < 0 {
		searchLo = 0
	}
	searchHi := bestAt + 3*n
	bestXC, bestStart := 0.0, bestAt
	for d := searchLo; d <= searchHi && d+bodyOff+2*n <= len(samples); d++ {
		xc := cmplx.Abs(dsp.CrossCorr(samples[d+bodyOff:d+bodyOff+2*n], template))
		if xc > bestXC {
			bestXC, bestStart = xc, d
		}
	}

	// Fine CFO from the two LTF repetitions (lag n). Unambiguous for
	// offsets within ±0.5 subcarrier spacings (±156 kHz at 20 MHz — far
	// beyond the ±25 ppm oscillators 802.11 allows), so no integer-bin
	// resolution is attempted: under strong interference the coarse STF
	// phase is too biased to resolve it reliably.
	fineStart := bestStart + bodyOff
	var fine float64
	if fineStart+2*n <= len(samples) {
		pf := dsp.AutoCorr(samples[fineStart:], n, n)
		fine = -cmplx.Phase(pf) / (2 * math.Pi)
	}
	return SyncResult{FrameStart: bestStart, CFO: fine, CoarseCFO: coarse, Metric: best}, nil
}

// CorrectCFO removes a CFO estimate (in subcarrier spacings of the grid)
// from samples in place, phase-referenced to sample index 0.
func CorrectCFO(samples []complex128, cfo float64, g ofdm.Grid) {
	dsp.FreqShift(samples, -cfo, g.NFFT, 0)
}

// ISIFreeDetect estimates the first ISI-free cyclic-prefix offset of
// received OFDM symbols by the correlation method the paper cites in §6
// ([4,37,43,57]): for each CP offset o, correlate the CP samples with the
// symbol-tail samples they should replicate, averaged over the given symbol
// starts, and report the smallest o whose normalised correlation exceeds
// threshold (e.g. 0.8). Returns g.CP (no usable segments beyond the
// standard window) when nothing correlates.
func ISIFreeDetect(samples []complex128, symStarts []int, g ofdm.Grid, threshold float64) int {
	n, cp := g.NFFT, g.CP
	for o := 0; o < cp; o++ {
		// Correlate only the single CP sample at offset o with its body
		// replica, across all symbols: pooling the whole CP range would let
		// the many ISI-free samples mask the corrupted head.
		var num complex128
		var ea, eb float64
		for _, s := range symStarts {
			if s < 0 || s+cp+n > len(samples) {
				continue
			}
			a := samples[s+o]
			b := samples[s+n+o]
			num += a * cmplx.Conj(b)
			ea += real(a)*real(a) + imag(a)*imag(a)
			eb += real(b)*real(b) + imag(b)*imag(b)
		}
		if ea <= 0 || eb <= 0 {
			continue
		}
		if cmplx.Abs(num)/math.Sqrt(ea*eb) >= threshold {
			return o
		}
	}
	return cp
}
