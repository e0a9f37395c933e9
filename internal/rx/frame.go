package rx

import (
	"fmt"
	"math/cmplx"

	"repro/internal/dsp"
	"repro/internal/ofdm"
)

// Frame binds a received sample stream to one PPDU whose preamble starts at
// a known sample index, and provides channel-equalised subcarrier
// observations for any OFDM symbol and any cyclic-prefix FFT segment.
// It is the common substrate of every receiver variant in the repository.
//
// Every observation method runs on the demodulator's one planar batch
// path, Demodulator.Segments at the used-subcarrier bins — split re/im
// windows from the seed FFT to the last slide, interleaved back to
// complex128 per value at the equalizer boundary. The multi-segment
// methods (ObserveSegments, ObservePreambleAll) return buffers
// owned by the Frame that are reused by the next call on the same Frame;
// copy anything that must outlive the next observation. The same holds
// for the decision and confidence slices StandardDecider returns: they
// are the Frame's decision slots, shared by the hard and soft calls and
// overwritten by the next decision on the Frame.
//
// Bind re-targets a Frame at a new packet in place, reusing every buffer
// (and the demodulator, while the grid is unchanged), so a receive path
// that recycles its Frame allocates nothing per packet. A Frame is not
// safe for concurrent use.
type Frame struct {
	grid    ofdm.Grid
	samples []complex128
	start   int
	demod   *ofdm.Demodulator
	h       []complex128 // per-bin channel estimate
	scs     []int        // data subcarriers
	pilots  []int

	// Per-frame lookup tables: the FFT bin and channel estimate of each data/pilot subcarrier, so the
	// per-symbol loops skip the Bin() modulo and Ĥ gather. The bin
	// tables depend on the grid only; the rest is rewritten by Bind.
	selBins   []int // FFT bins of the 52 used subcarriers, for sparse slides
	dataBins  []int // FFT bin per data subcarrier (scs order)
	pilotBins []int // FFT bin per pilot subcarrier (pilots order)
	hData     []complex128
	hPilot    []complex128
	// Precomputed Smith dividers for the equalisation by Ĥ (bit-identical
	// to dividing by hData/hPilot; see dsp.Divisor).
	hDataDiv  []dsp.Divisor
	hPilotDiv []dsp.Divisor

	// Reused observation scratch (see type comment).
	segP   []dsp.Planar  // batch planar demodulation windows
	obs    []Observation // equalised observations handed to callers
	preSeg [][2][]complex128
	oneOff [1]int       // single-offset scratch for ObserveSymbol
	pconj  []complex128 // per-call conjugated pilot references
	pref   []complex128 // per-call pilot references
	chSum  []complex128 // channel estimation's per-bin LTF sum
	chOff  []int        // channel estimation's segment offsets (grid-only)

	// Decision slots (see type comment): StandardDecider's lattice
	// indices and soft confidences.
	dec  []int
	conf []float64
}

// NewFrame creates a frame view and estimates the channel from the two LTF
// symbols using the standard (CP-skipping) FFT window.
func NewFrame(g ofdm.Grid, samples []complex128, preambleStart int) (*Frame, error) {
	return new(Frame).Bind(g, samples, preambleStart)
}

// Bind points f at a new sample stream and preamble start, re-estimates
// the channel, and returns f. Every buffer the Frame owns is reused, and
// so is its demodulator when the grid is unchanged; observations, slices
// and decisions handed out before the call are overwritten by later use.
// On error the Frame is unusable until the next successful Bind.
func (f *Frame) Bind(g ofdm.Grid, samples []complex128, preambleStart int) (*Frame, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if f.demod == nil || f.demod.Grid() != g {
		d, err := ofdm.NewDemodulator(g)
		if err != nil {
			return nil, err
		}
		f.demod = d
		f.grid = g
		f.scs = ofdm.DataSubcarriers()
		f.pilots = ofdm.PilotSubcarriers()
		// Every observation this frame serves reads only the 52 used
		// subcarriers, so slid segment windows are updated sparsely at
		// their bins (the paper's composite grids leave ~80% of bins
		// unused).
		f.selBins = f.selBins[:0]
		for sc := -26; sc <= 26; sc++ {
			if sc != 0 {
				f.selBins = append(f.selBins, g.Bin(sc))
			}
		}
		f.dataBins = f.dataBins[:0]
		for _, sc := range f.scs {
			f.dataBins = append(f.dataBins, g.Bin(sc))
		}
		f.pilotBins = f.pilotBins[:0]
		for _, sc := range f.pilots {
			f.pilotBins = append(f.pilotBins, g.Bin(sc))
		}
		f.pconj = resize(f.pconj, len(f.pilots))
		f.pref = resize(f.pref, len(f.pilots))
		// Channel estimation's segments: stride of one native sample
		// over the upper half of the CP, which is ISI-free for any delay
		// spread up to CP/2.
		stride := max(g.NFFT/64, 1)
		f.chOff = f.chOff[:0]
		for o := g.CP / 2; o <= g.CP; o += stride {
			f.chOff = append(f.chOff, o)
		}
	}
	f.samples, f.start = samples, preambleStart
	if err := f.estimateChannel(); err != nil {
		return nil, err
	}
	return f, nil
}

// decisionSlots returns the Frame's decision and confidence slots sized
// for the data subcarriers (see the type comment for their lifetime).
func (f *Frame) decisionSlots() ([]int, []float64) {
	f.dec = resize(f.dec, len(f.scs))
	f.conf = resize(f.conf, len(f.scs))
	return f.dec, f.conf
}

// estimateChannel averages the LTF observations over both training symbols
// and over several ISI-free FFT segments of each (interference components
// rotate across segments while the signal component is constant, so the
// average suppresses them), then smooths Ĥ across neighbouring subcarriers
// (the physical channel has a delay spread of a couple of samples, so its
// frequency response is smooth, whereas interference leakage is bursty in
// frequency). Every receiver variant shares this estimate.
func (f *Frame) estimateChannel() error {
	starts := ofdm.LTFSymbolStarts(f.grid)
	offsets := f.chOff
	f.chSum = resize(f.chSum, f.grid.NFFT)
	sum := f.chSum
	clear(sum)
	n := 0
	for _, s := range starts {
		var err error
		f.segP, err = f.demod.Segments(f.samples, f.start+s, offsets, f.selBins, f.segP)
		if err != nil {
			return fmt.Errorf("rx: channel estimation: %w", err)
		}
		for _, w := range f.segP[:len(offsets)] {
			// Only the selected (used-subcarrier) bins are valid in slid
			// windows — and only they feed the estimate below.
			for _, i := range f.selBins {
				sum[i] += complex(w.Re[i], w.Im[i])
			}
			n++
		}
	}
	var raw [53]complex128 // indexed by sc+26
	for sc := -26; sc <= 26; sc++ {
		l := ofdm.LTFValue(sc)
		if l == 0 {
			continue
		}
		raw[sc+26] = sum[f.grid.Bin(sc)] / (complex(float64(n), 0) * l)
	}
	// Frequency smoothing: 5-wide moving average over used subcarriers.
	f.h = resize(f.h, f.grid.NFFT)
	clear(f.h)
	for sc := -26; sc <= 26; sc++ {
		if ofdm.LTFValue(sc) == 0 {
			continue
		}
		var acc complex128
		var cnt int
		for d := -2; d <= 2; d++ {
			j := sc + d
			if j < -26 || j > 26 || ofdm.LTFValue(j) == 0 {
				continue
			}
			acc += raw[j+26]
			cnt++
		}
		f.h[f.grid.Bin(sc)] = acc / complex(float64(cnt), 0)
	}
	f.hData = resize(f.hData, len(f.scs))
	f.hDataDiv = resize(f.hDataDiv, len(f.scs))
	for i, b := range f.dataBins {
		f.hData[i] = f.h[b]
		f.hDataDiv[i] = dsp.NewDivisor(f.h[b])
	}
	f.hPilot = resize(f.hPilot, len(f.pilots))
	f.hPilotDiv = resize(f.hPilotDiv, len(f.pilots))
	for i, b := range f.pilotBins {
		f.hPilot[i] = f.h[b]
		f.hPilotDiv[i] = dsp.NewDivisor(f.h[b])
	}
	return nil
}

// Grid returns the frame's grid.
func (f *Frame) Grid() ofdm.Grid { return f.grid }

// Samples returns the underlying sample stream (not a copy).
func (f *Frame) Samples() []complex128 { return f.samples }

// Start returns the preamble start sample index.
func (f *Frame) Start() int { return f.start }

// ChannelEstimate returns the per-bin channel estimate Ĥ (zero on unused
// bins). The returned slice must not be modified; the next Bind rewrites
// it.
func (f *Frame) ChannelEstimate() []complex128 { return f.h }

// ChannelAt returns Ĥ at a signed subcarrier index.
func (f *Frame) ChannelAt(sc int) complex128 { return f.h[f.grid.Bin(sc)] }

// SignalStart returns the sample index of the SIGNAL symbol's CP start.
func (f *Frame) SignalStart() int {
	return f.start + ofdm.PreambleLen(f.grid)
}

// DataSymbolStart returns the sample index of DATA symbol k's CP start.
func (f *Frame) DataSymbolStart(k int) int {
	return f.SignalStart() + (k+1)*f.grid.SymLen()
}

// Observation holds one OFDM symbol's equalised data-subcarrier values for
// one FFT segment, in ofdm.DataSubcarriers order.
type Observation struct {
	// Data holds X̂[f] for the 48 data subcarriers.
	Data []complex128
	// CPE is the common phase error removed using the pilots (radians).
	CPE float64
	// PilotDev is the mean absolute deviation of this window's four
	// equalised pilots from their expected values — a per-symbol,
	// per-segment interference probe (only set by ObserveSegments).
	PilotDev float64
}

// symbolCounter maps a symbol index (-1 = SIGNAL, 0.. = data) to the pilot
// polarity counter.
func symbolCounter(symIdx int) int { return symIdx + 1 }

// pilotRefs fills the per-call pilot reference tables for a symbol index:
// pref[p] is the expected pilot value, pconj[p] its conjugate.
func (f *Frame) pilotRefs(ctr int) {
	for p, sc := range f.pilots {
		v := ofdm.PilotValue(ctr, sc)
		f.pref[p] = v
		f.pconj[p] = cmplx.Conj(v)
	}
}

// ObserveSymbol demodulates the FFT segment starting cpOffset samples into
// the CP of symbol symIdx (-1 for SIGNAL, ≥0 for data), corrects the
// segment phase ramp (Eq. 2), equalises by Ĥ, and removes the common phase
// error estimated from the four pilots of the same window. The returned
// observation's Data buffer is Frame-owned scratch, reused by later
// observations on this Frame.
func (f *Frame) ObserveSymbol(symIdx, cpOffset int) (Observation, error) {
	symStart := f.DataSymbolStart(symIdx) // DataSymbolStart(-1) is the SIGNAL symbol
	f.oneOff[0] = cpOffset                // validated by the demodulator
	var err error
	f.segP, err = f.demod.Segments(f.samples, symStart, f.oneOff[:], f.selBins, f.segP)
	if err != nil {
		return Observation{}, err
	}
	return f.observationFromBins(f.segP[0], symIdx)
}

func (f *Frame) observationFromBins(w dsp.Planar, symIdx int) (Observation, error) {
	// Equalise pilots and estimate common phase error.
	var acc complex128
	f.pilotRefs(symbolCounter(symIdx))
	for p, bin := range f.pilotBins {
		if f.hPilot[p] == 0 {
			continue
		}
		acc += f.hPilotDiv[p].Div(complex(w.Re[bin], w.Im[bin])) * f.pconj[p]
	}
	cpe := cmplx.Phase(acc)
	rot := cmplx.Exp(complex(0, -cpe))

	obs := Observation{Data: f.observationScratch(1)[0].Data, CPE: cpe}
	for i, bin := range f.dataBins {
		if f.hData[i] == 0 {
			return Observation{}, fmt.Errorf("rx: no channel estimate at subcarrier %d", f.scs[i])
		}
		obs.Data[i] = f.hDataDiv[i].Div(complex(w.Re[bin], w.Im[bin])) * rot
	}
	return obs, nil
}

// DataSubcarrierCount returns the number of data subcarriers (48).
func (f *Frame) DataSubcarrierCount() int { return len(f.scs) }

// ObserveSegments returns observations of symbol symIdx for every CP offset
// in segments, in order. Unlike repeated ObserveSymbol calls, the common
// phase error is estimated ONCE from the pilots pooled across all segments:
// the signal's CPE is identical in every (phase-corrected) segment while
// interference on the pilots rotates from segment to segment, so pooling
// suppresses it — the multi-window receivers get the full benefit of the
// recycled prefix on their phase tracking too.
//
// The windows are demodulated in one planar batch (seed FFT + sliding-DFT
// updates on split re/im planes, converted to complex128 value by value at
// this equalizer boundary) and the returned observations live in
// Frame-owned scratch that the next multi-segment observation on this
// Frame reuses; copy anything that must be retained.
func (f *Frame) ObserveSegments(symIdx int, segments []int) ([]Observation, error) {
	symStart := f.DataSymbolStart(symIdx)
	var err error
	f.segP, err = f.demod.Segments(f.samples, symStart, segments, f.selBins, f.segP)
	if err != nil {
		return nil, err
	}
	f.pilotRefs(symbolCounter(symIdx))
	var acc complex128
	for _, w := range f.segP[:len(segments)] {
		for p, bin := range f.pilotBins {
			if f.hPilot[p] == 0 {
				continue
			}
			acc += f.hPilotDiv[p].Div(complex(w.Re[bin], w.Im[bin])) * f.pconj[p]
		}
	}
	cpe := cmplx.Phase(acc)
	rot := cmplx.Exp(complex(0, -cpe))
	out := f.observationScratch(len(segments))
	for i := range out {
		w := f.segP[i]
		wre, wim := w.Re, w.Im
		obs := &out[i]
		obs.CPE = cpe
		obs.PilotDev = 0
		data := obs.Data
		for j, bin := range f.dataBins {
			if f.hData[j] == 0 {
				return nil, fmt.Errorf("rx: no channel estimate at subcarrier %d", f.scs[j])
			}
			data[j] = f.hDataDiv[j].Div(complex(wre[bin], wim[bin])) * rot
		}
		var pdev float64
		var np int
		for p, bin := range f.pilotBins {
			if f.hPilot[p] == 0 {
				continue
			}
			pdev += dsp.Abs(f.hPilotDiv[p].Div(complex(wre[bin], wim[bin]))*rot - f.pref[p])
			np++
		}
		if np > 0 {
			obs.PilotDev = pdev / float64(np)
		}
	}
	return out, nil
}

// observationScratch returns n reusable observations with Data buffers
// sized for the data subcarriers.
func (f *Frame) observationScratch(n int) []Observation {
	if cap(f.obs) < n {
		grown := make([]Observation, n)
		copy(grown, f.obs[:cap(f.obs)])
		f.obs = grown
	}
	f.obs = f.obs[:n]
	for i := range f.obs {
		if len(f.obs[i].Data) != len(f.scs) {
			f.obs[i].Data = make([]complex128, len(f.scs))
		}
	}
	return f.obs
}

// ObservePreambleAll returns the equalised LTF observations of every CP
// offset in segments in one batch: out[i][s][j] is segment i, training
// symbol s, data subcarrier j (DataSubcarriers order), i.e. the received
// value divided by Ĥ — CPRecycle's interference-model training inputs (the
// known transmitted value is ofdm.LTFValue). Each LTF symbol costs one
// seed FFT plus len(segments)-1 sliding-DFT updates, where the
// one-FFT-per-window equivalent would pay a full FFT per (segment,
// symbol).
//
// Like ObserveSegments, the returned buffers are Frame-owned scratch.
func (f *Frame) ObservePreambleAll(segments []int) ([][2][]complex128, error) {
	if cap(f.preSeg) < len(segments) {
		grown := make([][2][]complex128, len(segments))
		copy(grown, f.preSeg[:cap(f.preSeg)])
		f.preSeg = grown
	}
	f.preSeg = f.preSeg[:len(segments)]
	for i := range f.preSeg {
		for s := 0; s < 2; s++ {
			if len(f.preSeg[i][s]) != len(f.scs) {
				f.preSeg[i][s] = make([]complex128, len(f.scs))
			}
		}
	}
	starts := ofdm.LTFSymbolStarts(f.grid)
	for s, st := range starts {
		var err error
		f.segP, err = f.demod.Segments(f.samples, f.start+st, segments, f.selBins, f.segP)
		if err != nil {
			return nil, err
		}
		for i, w := range f.segP[:len(segments)] {
			vals := f.preSeg[i][s]
			for j, bin := range f.dataBins {
				if f.hData[j] == 0 {
					return nil, fmt.Errorf("rx: no channel estimate at subcarrier %d", f.scs[j])
				}
				vals[j] = f.hDataDiv[j].Div(complex(w.Re[bin], w.Im[bin]))
			}
		}
	}
	return f.preSeg, nil
}

// NoiseEstimate returns the mean squared deviation of the equalised LTF
// observations from the known LTF values — an SNR-cum-interference power
// estimate receivers use for soft demapping.
func (f *Frame) NoiseEstimate() (float64, error) {
	f.oneOff[0] = f.grid.CP
	pre, err := f.ObservePreambleAll(f.oneOff[:])
	if err != nil {
		return 0, err
	}
	var sum float64
	var n int
	for _, vals := range pre[0] {
		for j, sc := range f.scs {
			d := vals[j] - ofdm.LTFValue(sc)
			sum += real(d)*real(d) + imag(d)*imag(d)
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("rx: no observations for noise estimate")
	}
	return sum / float64(n), nil
}
