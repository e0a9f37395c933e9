package dsp

import (
	"fmt"
	"slices"
)

// SlideTab is a precomputed twiddle schedule for SlideRotatedTab: the
// e^{+i 2π k (δ−j) / N} factors of one rotated-domain slide of fixed step
// m restricted to a fixed bin selection, flattened in (bin-major, j-minor)
// order as re/im pairs. Receivers advance the same segment plan over every
// OFDM symbol, so the (delta, m, sel) triple of each slide recurs
// packet after packet; the table replaces the modular twiddle-index walk
// of a direct update with one linear read stream. Tables are immutable and
// cached on the SlidingDFT, so they are safe for concurrent use.
type SlideTab struct {
	m   int
	sel []int
	tw  []float64 // len(sel)*m re/im pairs
	// SIMD layout (built by buildVec when assembly kernels are
	// available). Receiver bin selections are dominated by contiguous
	// subcarrier runs, so the schedule is split into dense vector runs —
	// maximal stretches of consecutive bins, in groups of asmLanes, with
	// their twiddles transposed to j-major lane vectors in twV so
	// slideTabASM reads one linear stream and needs no gathers. runs
	// holds (k0, twOff, groups) int triples, one per dense run, consumed
	// by the single slideTabASM call; scalarPos holds the positions
	// (indexes into sel) of every bin left over, which SlideRotatedTab
	// updates with the scalar loop. nil / empty on scalar-only builds.
	twV       []float64
	runs      []int
	scalarPos []int32
}

// tabKey identifies a cached slide table: the schedule depends on
// (delta mod n, m) and on the bin selection, folded to a hash here and
// verified on lookup.
type tabKey struct {
	base, m, selHash, selLen int
}

// selHash folds a bin selection to an FNV-1a style hash.
func selHash(sel []int) int {
	h := uint64(1469598103934665603)
	for _, k := range sel {
		h ^= uint64(k)
		h *= 1099511628211
	}
	return int(uint(h) >> 1)
}

// SlideTabFor returns the (process-cached, immutable) twiddle schedule for
// a rotated slide of step m with pre-slide ramp slope delta (any integer;
// it is reduced mod n), restricted to the listed bins. All bins must be
// distinct and in [0, n); m must be in [1, n]. (A duplicated bin would
// make the result depend on update order when dst aliases src in
// SlideRotatedTab — and the SIMD layout processes bins in dense-run
// order, not sel order — so it is rejected here.)
func (s *SlidingDFT) SlideTabFor(delta, m int, sel []int) (*SlideTab, error) {
	n := s.n
	if m <= 0 || m > n {
		return nil, fmt.Errorf("dsp: SlideTabFor step %d outside [1,%d]", m, n)
	}
	base := (n - delta%n) % n
	if base < 0 {
		base += n
	}
	key := tabKey{base: base, m: m, selHash: selHash(sel), selLen: len(sel)}
	if v, ok := s.tabs.Load(key); ok {
		t := v.(*SlideTab)
		if slices.Equal(t.sel, sel) {
			return t, nil
		}
		// Hash collision: fall through and build an uncached table.
	}
	// Validation runs on the build path only — a cache hit already
	// guarantees a validated selection.
	seen := make(map[int]struct{}, len(sel))
	for _, k := range sel {
		if _, dup := seen[k]; dup {
			return nil, fmt.Errorf("dsp: SlideTabFor duplicate bin %d", k)
		}
		seen[k] = struct{}{}
	}
	t := &SlideTab{m: m, sel: slices.Clone(sel), tw: make([]float64, 0, 2*m*len(sel))}
	for _, k := range sel {
		if k < 0 || k >= n {
			return nil, fmt.Errorf("dsp: SlideTabFor bin %d outside [0,%d)", k, n)
		}
		// Twiddle index of e^{+i 2π k (δ−j) / N}: start at (base·k) mod n,
		// step k per j. The stored values are copies of the kernel's
		// twiddle table.
		idx := (base * k) % n
		for j := 0; j < m; j++ {
			t.tw = append(t.tw, s.wP[2*idx], s.wP[2*idx+1])
			idx += k
			if idx >= n {
				idx -= n
			}
		}
	}
	t.buildVec()
	if v, loaded := s.tabs.LoadOrStore(key, t); loaded {
		if prev := v.(*SlideTab); slices.Equal(prev.sel, sel) {
			return prev, nil
		}
	}
	return t, nil
}

// SlideRotatedTab advances src's rotated spectrum by the table's step into
// dst at the table's selected bins only: dst[k] = src[k] + Σ_j diffs[j]·
// e^{+i 2π k (δ−j) / N} (see SlidingDFT), fused with the copy so
// unselected dst bins are left untouched. diffs must hold exactly the
// table's step m of entering-minus-leaving samples x[t+N+j] − x[t+j],
// pre-scaled by whatever constant the caller keeps the spectrum in (1/N
// for ofdm demodulation). src and dst may alias (the update is per-bin in place); when
// they are distinct buffers the caller saves a full-window copy.
func (s *SlidingDFT) SlideRotatedTab(dst, src, diffs Planar, tab *SlideTab) {
	n := s.n
	if dst.Len() != n || src.Len() != n {
		panic(fmt.Sprintf("dsp: SlideRotatedTab bins length %d/%d, kernel size %d", dst.Len(), src.Len(), n))
	}
	m := tab.m
	if diffs.Len() != m {
		panic(fmt.Sprintf("dsp: SlideRotatedTab got %d diffs, table step %d", diffs.Len(), m))
	}
	sre, sim := src.Re, src.Im
	dre, dim := dst.Re, dst.Im
	tw := tab.tw
	if tab.runs != nil && simdEnabled() {
		// Vectorised path: the dense runs of consecutive bins in one
		// assembly call, then the scalar loop over the leftover bins —
		// arithmetic identical to the all-scalar path (bins are
		// independent and the j walk keeps the scalar operation order).
		slideTabASM(&dre[0], &dim[0], &sre[0], &sim[0],
			&diffs.Re[0], &diffs.Im[0], &tab.twV[0], &tab.runs[0], m, len(tab.runs)/3)
		if m == 4 {
			// Same unrolled shape as the scalar m == 4 specialisation
			// below (identical j order, so identical values).
			d0r, d0i := diffs.Re[0], diffs.Im[0]
			d1r, d1i := diffs.Re[1], diffs.Im[1]
			d2r, d2i := diffs.Re[2], diffs.Im[2]
			d3r, d3i := diffs.Re[3], diffs.Im[3]
			for _, b := range tab.scalarPos {
				k := tab.sel[b]
				p := 8 * int(b)
				t := tw[p : p+8 : p+8]
				accR, accI := sre[k], sim[k]
				accR += d0r*t[0] - d0i*t[1]
				accI += d0r*t[1] + d0i*t[0]
				accR += d1r*t[2] - d1i*t[3]
				accI += d1r*t[3] + d1i*t[2]
				accR += d2r*t[4] - d2i*t[5]
				accI += d2r*t[5] + d2i*t[4]
				accR += d3r*t[6] - d3i*t[7]
				accI += d3r*t[7] + d3i*t[6]
				dre[k] = accR
				dim[k] = accI
			}
			return
		}
		dfr, dfi := diffs.Re, diffs.Im
		for _, b := range tab.scalarPos {
			k := tab.sel[b]
			accR, accI := sre[k], sim[k]
			p := 2 * m * int(b)
			for j := 0; j < m; j++ {
				tr, ti := tw[p], tw[p+1]
				dr, di := dfr[j], dfi[j]
				accR += dr*tr - di*ti
				accI += dr*ti + di*tr
				p += 2
			}
			dre[k] = accR
			dim[k] = accI
		}
		return
	}
	switch m {
	case 4:
		// The dominant receiver shape (native-sample stride on an
		// oversampled grid): unrolled with the four diffs held in
		// registers across the whole bin loop.
		d0r, d0i := diffs.Re[0], diffs.Im[0]
		d1r, d1i := diffs.Re[1], diffs.Im[1]
		d2r, d2i := diffs.Re[2], diffs.Im[2]
		d3r, d3i := diffs.Re[3], diffs.Im[3]
		p := 0
		for _, k := range tab.sel {
			t := tw[p : p+8 : p+8]
			accR, accI := sre[k], sim[k]
			accR += d0r*t[0] - d0i*t[1]
			accI += d0r*t[1] + d0i*t[0]
			accR += d1r*t[2] - d1i*t[3]
			accI += d1r*t[3] + d1i*t[2]
			accR += d2r*t[4] - d2i*t[5]
			accI += d2r*t[5] + d2i*t[4]
			accR += d3r*t[6] - d3i*t[7]
			accI += d3r*t[7] + d3i*t[6]
			dre[k] = accR
			dim[k] = accI
			p += 8
		}
	case 2:
		d0r, d0i := diffs.Re[0], diffs.Im[0]
		d1r, d1i := diffs.Re[1], diffs.Im[1]
		p := 0
		for _, k := range tab.sel {
			t := tw[p : p+4 : p+4]
			accR, accI := sre[k], sim[k]
			accR += d0r*t[0] - d0i*t[1]
			accI += d0r*t[1] + d0i*t[0]
			accR += d1r*t[2] - d1i*t[3]
			accI += d1r*t[3] + d1i*t[2]
			dre[k] = accR
			dim[k] = accI
			p += 4
		}
	case 1:
		d0r, d0i := diffs.Re[0], diffs.Im[0]
		p := 0
		for _, k := range tab.sel {
			tr, ti := tw[p], tw[p+1]
			accR, accI := sre[k], sim[k]
			dre[k] = accR + (d0r*tr - d0i*ti)
			dim[k] = accI + (d0r*ti + d0i*tr)
			p += 2
		}
	default:
		dfr, dfi := diffs.Re, diffs.Im
		p := 0
		for _, k := range tab.sel {
			accR, accI := sre[k], sim[k]
			for j := 0; j < m; j++ {
				tr, ti := tw[p], tw[p+1]
				dr, di := dfr[j], dfi[j]
				accR += dr*tr - di*ti
				accI += dr*ti + di*tr
				p += 2
			}
			dre[k] = accR
			dim[k] = accI
		}
	}
}
