package ofdm

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/dsp"
)

// Modulator synthesises cyclic-prefixed OFDM symbols on a Grid. It caches
// the FFT plan for the grid size and runs the planar inverse transform on
// its own scratch. Not safe for concurrent use.
type Modulator struct {
	grid Grid
	plan *dsp.FFTPlan
	freq []complex128 // scratch frequency-domain buffer for Symbol
	body dsp.Planar   // planar scratch for the inverse transform
}

// NewModulator returns a modulator for the grid. The FFT plan comes from
// the process-wide cache, so constructing modulators per packet is cheap.
func NewModulator(g Grid) (*Modulator, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	p, err := dsp.PlanFor(g.NFFT)
	if err != nil {
		return nil, err
	}
	return &Modulator{
		grid: g,
		plan: p,
		freq: make([]complex128, g.NFFT),
		body: dsp.NewPlanar(g.NFFT),
	}, nil
}

// MustModulator is NewModulator but panics on error.
func MustModulator(g Grid) *Modulator {
	m, err := NewModulator(g)
	if err != nil {
		panic(err)
	}
	return m
}

// Grid returns the modulator's grid.
func (m *Modulator) Grid() Grid { return m.grid }

// Symbol synthesises one OFDM symbol with cyclic prefix from a map of
// signed subcarrier index to complex value. The output has length SymLen
// and unit average power per occupied subcarrier scaled so the time-domain
// signal has average power len(values)/NFFT × gain²; use GainForUnitPower
// to normalise.
func (m *Modulator) Symbol(values map[int]complex128) []complex128 {
	for i := range m.freq {
		m.freq[i] = 0
	}
	for sc, v := range values {
		m.freq[m.grid.Bin(sc)] = v
	}
	out := make([]complex128, m.grid.SymLen())
	m.symbolInto(out, m.freq, 1)
	return out
}

// SymbolFromBins synthesises one OFDM symbol directly from a full
// frequency-domain vector of length NFFT (bin order, not subcarrier order).
func (m *Modulator) SymbolFromBins(bins []complex128) []complex128 {
	out := make([]complex128, m.grid.SymLen())
	m.SymbolFromBinsInto(out, bins, 1)
	return out
}

// SymbolFromBinsInto synthesises one OFDM symbol from a full
// frequency-domain vector directly into out, which must have length
// SymLen, with every sample scaled by gain. It is the allocation-free form
// of SymbolFromBins, used by the transmitter's per-symbol hot path.
func (m *Modulator) SymbolFromBinsInto(out, bins []complex128, gain float64) {
	if len(bins) != m.grid.NFFT {
		panic(fmt.Sprintf("ofdm: SymbolFromBins got %d bins, want %d", len(bins), m.grid.NFFT))
	}
	if len(out) != m.grid.SymLen() {
		panic(fmt.Sprintf("ofdm: SymbolFromBinsInto got %d output samples, want %d", len(out), m.grid.SymLen()))
	}
	m.symbolInto(out, bins, gain)
}

// symbolInto writes the gain-scaled, cyclic-prefixed symbol for bins into
// out. The symbol is the unnormalised inverse DFT of the bins: a single
// occupied unit bin produces a unit-amplitude complex exponential, keeping
// powers comparable across grid sizes (an oversampled embedding has
// identical sample power). That equals the 1/N-scaled inverse times N, and
// because both factors are exact powers of two, one multiply by gain per
// sample gives the same values as scaling by 1/N, N and gain in turn.
func (m *Modulator) symbolInto(out, bins []complex128, gain float64) {
	n, cp := m.grid.NFFT, m.grid.CP
	dsp.Deinterleave(m.body, bins)
	m.plan.InversePlanarUnscaled(m.body)
	re, im := m.body.Re, m.body.Im
	prefix := out[:cp]
	for i := range prefix {
		prefix[i] = complex(re[n-cp+i]*gain, im[n-cp+i]*gain)
	}
	body := out[cp : cp+n]
	for i := range body {
		body[i] = complex(re[i]*gain, im[i]*gain)
	}
}

// GainForUnitPower returns the gain that makes a stream of symbols with
// nOccupied unit-power subcarriers have unit average time-domain power.
func (m *Modulator) GainForUnitPower(nOccupied int) float64 {
	if nOccupied <= 0 {
		return 0
	}
	// With the N scaling above, E|x|² = nOccupied.
	return 1 / math.Sqrt(float64(nOccupied))
}

// Demodulator computes FFT windows over a received stream on a Grid,
// including the multi-segment windows CPRecycle uses. Segments computes
// all P windows of a symbol with one seed FFT plus incremental
// sliding-DFT updates at a fixed bin selection, entirely on planar (split
// re/im) buffers, with per-slide twiddle schedules (dsp.SlideTab) and
// cached Eq. 2 phase-ramp tables. Not safe for concurrent use.
type Demodulator struct {
	grid   Grid
	plan   *dsp.FFTPlan
	sdft   *dsp.SlidingDFT
	diffs  dsp.Planar        // scaled sample-difference scratch for slides
	rampsP map[int][]float64 // Eq. 2 ramp tables as (re, im) float pairs

	// Memoised twiddle schedules for the current (offsets, sel) pair:
	// receivers advance the same segment plan every symbol, so the
	// per-slide tables resolve through the process-wide cache once per
	// plan change instead of once per slide.
	tabOffsets []int
	tabSel     []int
	tabSeq     []*dsp.SlideTab // tabSeq[i-1] serves the slide to offsets[i]
}

// NewDemodulator returns a demodulator for the grid. The FFT plan comes
// from the process-wide cache, so constructing demodulators per frame is
// cheap.
func NewDemodulator(g Grid) (*Demodulator, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	p, err := dsp.PlanFor(g.NFFT)
	if err != nil {
		return nil, err
	}
	sd, err := dsp.SlidingFor(g.NFFT)
	if err != nil {
		return nil, err
	}
	return &Demodulator{
		grid: g,
		plan: p,
		sdft: sd,
	}, nil
}

// MustDemodulator is NewDemodulator but panics on error.
func MustDemodulator(g Grid) *Demodulator {
	d, err := NewDemodulator(g)
	if err != nil {
		panic(err)
	}
	return d
}

// Grid returns the demodulator's grid.
func (d *Demodulator) Grid() Grid { return d.grid }

// WindowAt FFTs the NFFT samples of rx starting at sample index start and
// returns a fresh frequency-domain vector (bin order). The 1/N scaling
// mirrors the modulator's N scaling so a loopback returns the original
// subcarrier values.
func (d *Demodulator) WindowAt(rx []complex128, start int) ([]complex128, error) {
	out := make([]complex128, d.grid.NFFT)
	if err := d.WindowInto(out, rx, start); err != nil {
		return nil, err
	}
	return out, nil
}

// WindowInto is WindowAt into a caller-provided buffer of length NFFT,
// avoiding the allocation.
func (d *Demodulator) WindowInto(dst, rx []complex128, start int) error {
	n := d.grid.NFFT
	if len(dst) != n {
		return fmt.Errorf("ofdm: WindowInto dst length %d, want %d", len(dst), n)
	}
	if start < 0 || start+n > len(rx) {
		return fmt.Errorf("ofdm: window [%d,%d) outside rx of %d samples", start, start+n, len(rx))
	}
	copy(dst, rx[start:start+n])
	d.plan.Forward(dst)
	dsp.Scale(dst, 1/float64(n))
	return nil
}

// Standard demodulates the standard receiver's window for the OFDM symbol
// whose cyclic prefix starts at symStart: the window that skips the entire
// CP (the paper's "16th segment").
func (d *Demodulator) Standard(rx []complex128, symStart int) ([]complex128, error) {
	return d.WindowAt(rx, symStart+d.grid.CP)
}

// slideTabs returns the memoised per-slide twiddle schedules for
// (offsets, sel), resolving them through the process-wide cache only when
// the plan or selection changed since the last batch.
func (d *Demodulator) slideTabs(offsets, sel []int) ([]*dsp.SlideTab, error) {
	if slices.Equal(d.tabOffsets, offsets) && slices.Equal(d.tabSel, sel) {
		return d.tabSeq, nil
	}
	// Invalidate the memo key before touching tabSeq so a failed rebuild
	// can never be served to a later call under the previous key.
	d.tabOffsets = d.tabOffsets[:0]
	d.tabSel = d.tabSel[:0]
	d.tabSeq = d.tabSeq[:0]
	for i := 1; i < len(offsets); i++ {
		tab, err := d.sdft.SlideTabFor(d.grid.CP-offsets[i-1], offsets[i]-offsets[i-1], sel)
		if err != nil {
			return nil, err
		}
		d.tabSeq = append(d.tabSeq, tab)
	}
	d.tabOffsets = append(d.tabOffsets, offsets...)
	d.tabSel = append(d.tabSel, sel...)
	return d.tabSeq, nil
}

// Segments demodulates the phase-corrected FFT windows for every CP
// offset in offsets (strictly increasing, each in [0, CP]) of the symbol
// whose CP starts at symStart — the paper's P segment windows — using one
// seed FFT at the earliest offset plus an O(len(sel)·stride) sliding-DFT
// update per further window, instead of P independent O(N log N)
// transforms. Each window is 1/N scaled and Eq. 2 phase-corrected, in bin
// order, on split re/im planes.
//
// The seed window is complete; slid windows are valid at the selected
// bins only, and unselected bins hold whatever the reused buffer held
// before, so callers must read slid windows only at selected bins. sel
// must be non-empty when more than one offset is given; its bins must be
// distinct and in [0, NFFT), which is checked when its slide schedules
// are first built. Window buffers are reused from dst when correctly
// sized and allocated otherwise, and the (possibly grown) slice is
// returned: passing dst from a previous call makes the batch
// allocation-free.
func (d *Demodulator) Segments(rx []complex128, symStart int, offsets, sel []int, dst []dsp.Planar) ([]dsp.Planar, error) {
	if len(offsets) == 0 {
		return nil, fmt.Errorf("ofdm: Segments needs at least one offset")
	}
	n := d.grid.NFFT
	prev := -1
	for _, o := range offsets {
		if o < 0 || o > d.grid.CP {
			return nil, fmt.Errorf("ofdm: cpOffset %d outside [0,%d]", o, d.grid.CP)
		}
		if o <= prev {
			return nil, fmt.Errorf("ofdm: Segments offsets must be strictly increasing")
		}
		prev = o
	}
	first, last := symStart+offsets[0], symStart+offsets[len(offsets)-1]
	if first < 0 || last+n > len(rx) {
		return nil, fmt.Errorf("ofdm: windows [%d,%d) outside rx of %d samples", first, last+n, len(rx))
	}

	var tabs []*dsp.SlideTab
	if len(offsets) > 1 {
		if len(sel) == 0 {
			return nil, fmt.Errorf("ofdm: Segments needs a bin selection to slide")
		}
		var err error
		if tabs, err = d.slideTabs(offsets, sel); err != nil {
			return nil, err
		}
	}

	if cap(dst) >= len(offsets) {
		dst = dst[:len(offsets)] // window buffers beyond the old length are reused below
	} else {
		grown := make([]dsp.Planar, len(offsets))
		copy(grown, dst[:cap(dst)])
		dst = grown
	}
	for i := range dst {
		if dst[i].Len() != n {
			dst[i] = dsp.NewPlanar(n)
		}
	}

	// Seed: full transform of the earliest window, scaled and
	// phase-corrected exactly like the per-window reference (WindowAt
	// then CorrectSegmentPhase).
	seed := dst[0]
	dsp.Deinterleave(seed, rx[first:first+n])
	d.plan.ForwardPlanar(seed)
	seed.Scale(1 / float64(n))
	d.correctSegmentPhasePlanar(seed, d.grid.CP-offsets[0])

	// Each further window advances the previous one in the phase-corrected
	// domain, where the window shift and the ramp slope decrement cancel:
	// m scaled multiply-adds per selected bin, run off the precomputed
	// twiddle schedule and fused with the inter-window copy.
	scale := 1 / float64(n)
	for i := 1; i < len(offsets); i++ {
		m := offsets[i] - offsets[i-1]
		at := symStart + offsets[i-1]
		if d.diffs.Len() < m {
			d.diffs = dsp.NewPlanar(m)
		}
		diffs := dsp.Planar{Re: d.diffs.Re[:m], Im: d.diffs.Im[:m]}
		for j := 0; j < m; j++ {
			in, out := rx[at+n+j], rx[at+j]
			diffs.Re[j] = (real(in) - real(out)) * scale
			diffs.Im[j] = (imag(in) - imag(out)) * scale
		}
		d.sdft.SlideRotatedTab(dst[i], dst[i-1], diffs, tabs[i-1])
	}
	return dst, nil
}

// rampKey identifies a cached phase-ramp table.
type rampKey struct{ n, delta int }

// rampCache holds the Eq. 2 phase-ramp tables process-wide: the tables
// depend only on (NFFT, delta), and receivers reuse the same handful of
// deltas for every symbol of every packet.
var rampCache sync.Map // rampKey -> []complex128

// rampPairedCache mirrors rampCache for the planar form of the tables:
// the same values as (re, im) float pairs, shared process-wide so
// per-frame demodulators never rebuild them.
var rampPairedCache sync.Map // rampKey -> []float64

// rampPairedFor returns the cached (re, im)-paired copy of rampFor(n, delta).
func rampPairedFor(n, delta int) []float64 {
	key := rampKey{n, delta}
	if v, ok := rampPairedCache.Load(key); ok {
		return v.([]float64)
	}
	src := rampFor(n, delta)
	t := make([]float64, 2*len(src))
	for k, r := range src {
		t[2*k], t[2*k+1] = real(r), imag(r)
	}
	v, _ := rampPairedCache.LoadOrStore(key, t)
	return v.([]float64)
}

// rampFor returns the cached table e^{+i 2π k delta / N} for k in [0, N).
// Entries are computed exactly as CorrectSegmentPhase does, so applying
// the table is bit-identical to the per-call Sincos loop.
func rampFor(n, delta int) []complex128 {
	key := rampKey{n, delta}
	if v, ok := rampCache.Load(key); ok {
		return v.([]complex128)
	}
	w := 2 * math.Pi * float64(delta) / float64(n)
	t := make([]complex128, n)
	for k := range t {
		s, c := math.Sincos(w * float64(k))
		t[k] = complex(c, s)
	}
	v, _ := rampCache.LoadOrStore(key, t)
	return v.([]complex128)
}

// correctSegmentPhasePlanar applies the cached Eq. 2 ramp for delta to a
// planar window, with the complex multiply expanded to the same float
// operations as the interleaved CorrectSegmentPhase.
func (d *Demodulator) correctSegmentPhasePlanar(bins dsp.Planar, delta int) {
	if delta == 0 || bins.Len() == 0 {
		return
	}
	t := d.rampsP[delta]
	if t == nil {
		t = rampPairedFor(d.grid.NFFT, delta)
		if d.rampsP == nil {
			d.rampsP = make(map[int][]float64)
		}
		d.rampsP[delta] = t
	}
	re, im := bins.Re, bins.Im
	for k := range re {
		tr, ti := t[2*k], t[2*k+1]
		br, bi := re[k], im[k]
		re[k] = br*tr - bi*ti
		im[k] = br*ti + bi*tr
	}
}

// CorrectSegmentPhase removes the phase ramp caused by starting the FFT
// window delta samples early (relative to the standard CP-skipping window):
// bin k is multiplied by e^{+i 2π k delta / N}. This is Eq. 2 of the paper.
func CorrectSegmentPhase(bins []complex128, delta int) {
	if delta == 0 || len(bins) == 0 {
		return
	}
	for k, r := range rampFor(len(bins), delta) {
		bins[k] *= r
	}
}

// SegmentPlan enumerates the FFT segment start offsets used by a CPRecycle
// receiver: numSegments windows ending at the standard position, spaced
// stride samples apart, all within the ISI-free region [minOffset, CP].
// Offsets are returned in increasing order; the last is always CP (the
// standard window), mirroring the paper where "the scheme gracefully
// degrades to a standard OFDM receiver with one FFT segment".
func SegmentPlan(cp, stride, numSegments, minOffset int) ([]int, error) {
	if stride <= 0 {
		return nil, fmt.Errorf("ofdm: stride %d must be positive", stride)
	}
	if numSegments <= 0 {
		return nil, fmt.Errorf("ofdm: numSegments %d must be positive", numSegments)
	}
	if minOffset < 0 || minOffset > cp {
		return nil, fmt.Errorf("ofdm: minOffset %d outside [0,%d]", minOffset, cp)
	}
	var offs []int
	for i := 0; i < numSegments; i++ {
		o := cp - i*stride
		if o < minOffset {
			break
		}
		offs = append(offs, o)
	}
	// reverse to increasing order
	for i, j := 0, len(offs)-1; i < j; i, j = i+1, j-1 {
		offs[i], offs[j] = offs[j], offs[i]
	}
	if len(offs) == 0 {
		return nil, fmt.Errorf("ofdm: no segments fit (cp=%d stride=%d min=%d)", cp, stride, minOffset)
	}
	return offs, nil
}
