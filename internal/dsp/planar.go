package dsp

import (
	"fmt"
	"math"
)

// Planar holds a complex vector in planar (structure-of-arrays) layout:
// the real parts in Re and the imaginary parts in Im, index-aligned. The
// receiver hot kernels operate on this layout — two flat float64 streams
// vectorise and schedule better than interleaved []complex128, whose
// re/im pairs the compiler must keep as scalar pairs — and convert back
// to []complex128 only at algorithm boundaries (Interleave/Deinterleave).
//
// Invariants: len(Re) == len(Im), and Re and Im must not overlap. A
// Planar value is two slice headers; copying it aliases the same planes.
type Planar struct {
	Re, Im []float64
}

// NewPlanar returns a zeroed planar vector of length n with both planes
// carved from one allocation.
func NewPlanar(n int) Planar {
	buf := make([]float64, 2*n)
	return Planar{Re: buf[:n:n], Im: buf[n:]}
}

// Len returns the logical (complex) length.
func (p Planar) Len() int { return len(p.Re) }

// At returns element i as a complex128.
func (p Planar) At(i int) complex128 { return complex(p.Re[i], p.Im[i]) }

// Set stores v at element i.
func (p Planar) Set(i int, v complex128) {
	p.Re[i] = real(v)
	p.Im[i] = imag(v)
}

// Deinterleave splits src into dst's planes. Lengths must match. The
// conversion is exact (a bit-copy of each component).
func Deinterleave(dst Planar, src []complex128) {
	if dst.Len() != len(src) {
		panic(fmt.Sprintf("dsp: Deinterleave dst length %d, src length %d", dst.Len(), len(src)))
	}
	re, im := dst.Re, dst.Im
	for i, v := range src {
		re[i] = real(v)
		im[i] = imag(v)
	}
}

// Interleave merges src's planes into dst. Lengths must match. The
// conversion is exact (a bit-copy of each component).
func Interleave(dst []complex128, src Planar) {
	if src.Len() != len(dst) {
		panic(fmt.Sprintf("dsp: Interleave dst length %d, src length %d", len(dst), src.Len()))
	}
	re, im := src.Re, src.Im
	for i := range dst {
		dst[i] = complex(re[i], im[i])
	}
}

// CopyPlanar copies src into dst (lengths must match).
func CopyPlanar(dst, src Planar) {
	if dst.Len() != src.Len() {
		panic(fmt.Sprintf("dsp: CopyPlanar dst length %d, src length %d", dst.Len(), src.Len()))
	}
	copy(dst.Re, src.Re)
	copy(dst.Im, src.Im)
}

// Scale multiplies p in place by the real factor g. Values match the
// interleaved Scale exactly (the sign of a zero result may differ, which
// compares equal).
func (p Planar) Scale(g float64) {
	for i := range p.Re {
		p.Re[i] *= g
	}
	for i := range p.Im {
		p.Im[i] *= g
	}
}

// ForwardPlanar is Forward on planar data: the same radix-2 butterflies in
// the same order on split planes, so the output is bit-identical to the
// interleaved transform. On machines with SIMD support the butterfly
// stages run in assembly (see dispatch.go); the result is bit-identical
// either way.
func (p *FFTPlan) ForwardPlanar(x Planar) {
	if x.Len() != p.n {
		panic(fmt.Sprintf("dsp: ForwardPlanar length %d, plan size %d", x.Len(), p.n))
	}
	p.transformPlanar(x.Re, x.Im, true)
}

// InversePlanar is Inverse on planar data, including the 1/N scaling.
func (p *FFTPlan) InversePlanar(x Planar) {
	p.InversePlanarUnscaled(x)
	x.Scale(1 / float64(p.n))
}

// InversePlanarUnscaled is InversePlanar without the 1/N scaling:
// x[n] = Σ_k X[k]·e^{+i2πkn/N}. For power-of-two N the scaling is an
// exact power-of-two multiply, so a caller that would undo it (the OFDM
// modulator scales by N) gets the same values by skipping both.
func (p *FFTPlan) InversePlanarUnscaled(x Planar) {
	if x.Len() != p.n {
		panic(fmt.Sprintf("dsp: InversePlanarUnscaled length %d, plan size %d", x.Len(), p.n))
	}
	p.transformPlanar(x.Re, x.Im, false)
}

// transformPlanar mirrors transform butterfly-for-butterfly: each complex
// operation is expanded to the float operations the compiler emits for the
// interleaved form ((ac−bd, ad+bc) products, adds/subs in the same order),
// so the two paths produce identical values.
func (p *FFTPlan) transformPlanar(re, im []float64, fwd bool) {
	if p.transformPlanarSIMD(re, im, fwd) {
		return
	}
	twP := p.fwdP
	if !fwd {
		twP = p.invP
	}
	n := p.n
	bitrevPlanar(p.revPairs, re, im)
	if n < 2 {
		return
	}
	// First stage (size 2): its only twiddle is w⁰ = (1, −0), whose
	// multiply reproduces the operand's value exactly, so the butterflies
	// reduce to add/sub pairs (value-identical to the generic stage).
	for j := 0; j+1 < n; j += 2 {
		xr, xi := re[j+1], im[j+1]
		re[j+1] = re[j] - xr
		im[j+1] = im[j] - xi
		re[j] = re[j] + xr
		im[j] = im[j] + xi
	}
	// Remaining stages run twiddle-outer: each twiddle is loaded once and
	// applied to every butterfly group at its offset (stride size), so the
	// inner loop touches only the data planes. Butterflies within a stage
	// are independent, so reordering them leaves every result bit-identical
	// to the one-group-at-a-time interleaved transform.
	for size := 4; size <= n; size <<= 1 {
		half := size / 2
		step := n / size
		for j := 0; j < half; j++ {
			wr, wi := twP[2*step*j], twP[2*step*j+1]
			for lo := j; lo+half < n; lo += size {
				hi := lo + half
				xr, xi := re[hi], im[hi]
				tr := wr*xr - wi*xi
				ti := wr*xi + wi*xr
				re[hi] = re[lo] - tr
				im[hi] = im[lo] - ti
				re[lo] = re[lo] + tr
				im[lo] = im[lo] + ti
			}
		}
	}
}

// FreqShiftPlanar is FreqShift on planar data: the same phasor recurrence
// with the same resynchronisation cadence, value-identical to the
// interleaved kernel. On machines with SIMD support the per-sample
// rotation runs in assembly (the recurrence itself stays scalar, so the
// rotator values — and therefore the output — are bit-identical).
func FreqShiftPlanar(x Planar, shiftBins float64, n int, startSample int) {
	w := 2 * math.Pi * shiftBins / float64(n)
	ss, cs := math.Sincos(w)
	stepR, stepI := cs, ss
	if freqShiftPlanarSIMD(x, w, stepR, stepI, startSample) {
		return
	}
	var rotR, rotI float64
	re, im := x.Re, x.Im
	for t := range re {
		if t%freqShiftResync == 0 {
			s, c := math.Sincos(w * float64(startSample+t))
			rotR, rotI = c, s
		}
		xr, xi := re[t], im[t]
		re[t] = xr*rotR - xi*rotI
		im[t] = xr*rotI + xi*rotR
		rotR, rotI = rotR*stepR-rotI*stepI, rotR*stepI+rotI*stepR
	}
}

// SlidePlanar is Slide on planar data: identical per-bin update arithmetic
// on split planes.
func (s *SlidingDFT) SlidePlanar(bins, outgoing, incoming Planar) {
	n := s.n
	if bins.Len() != n {
		panic(fmt.Sprintf("dsp: SlidePlanar bins length %d, kernel size %d", bins.Len(), n))
	}
	m := outgoing.Len()
	if incoming.Len() != m {
		panic(fmt.Sprintf("dsp: SlidePlanar got %d outgoing but %d incoming samples", m, incoming.Len()))
	}
	if m == 0 {
		return
	}
	if m > n {
		panic(fmt.Sprintf("dsp: SlidePlanar step %d exceeds window size %d", m, n))
	}
	wp := s.wP
	rotStep := n - m
	if rotStep == n {
		rotStep = 0
	}
	rot := 0
	for k := 0; k < n; k++ {
		accR, accI := bins.Re[k], bins.Im[k]
		idx := 0
		for j := 0; j < m; j++ {
			dr := incoming.Re[j] - outgoing.Re[j]
			di := incoming.Im[j] - outgoing.Im[j]
			tr, ti := wp[2*idx], wp[2*idx+1]
			accR += dr*tr - di*ti
			accI += dr*ti + di*tr
			idx += k
			if idx >= n {
				idx -= n
			}
		}
		tr, ti := wp[2*rot], wp[2*rot+1]
		bins.Re[k] = accR*tr - accI*ti
		bins.Im[k] = accR*ti + accI*tr
		rot += rotStep
		if rot >= n {
			rot -= n
		}
	}
}

// SlideRotatedPlanar is SlideRotated on planar data: the same rotated-
// domain multiply-add per (bin, diff), so the result is value-identical
// to the interleaved kernel.
func (s *SlidingDFT) SlideRotatedPlanar(bins, diffs Planar, delta int) {
	n := s.n
	if bins.Len() != n {
		panic(fmt.Sprintf("dsp: SlideRotatedPlanar bins length %d, kernel size %d", bins.Len(), n))
	}
	m := diffs.Len()
	if m == 0 {
		return
	}
	if m > n {
		panic(fmt.Sprintf("dsp: SlideRotatedPlanar step %d exceeds window size %d", m, n))
	}
	wp := s.wP
	base := (n - delta%n) % n
	if base < 0 {
		base += n
	}
	bre, bim := bins.Re, bins.Im
	start := 0
	if m == 4 {
		// The dominant receiver shape: the four diffs are loop-invariant
		// across bins, so the specialisation holds them in registers and
		// unrolls the twiddle walk (additions in the same j order as the
		// generic loop — value-identical).
		d0r, d0i := diffs.Re[0], diffs.Im[0]
		d1r, d1i := diffs.Re[1], diffs.Im[1]
		d2r, d2i := diffs.Re[2], diffs.Im[2]
		d3r, d3i := diffs.Re[3], diffs.Im[3]
		for k := 0; k < n; k++ {
			accR, accI := bre[k], bim[k]
			idx := start
			tr, ti := wp[2*idx], wp[2*idx+1]
			accR += d0r*tr - d0i*ti
			accI += d0r*ti + d0i*tr
			idx += k
			if idx >= n {
				idx -= n
			}
			tr, ti = wp[2*idx], wp[2*idx+1]
			accR += d1r*tr - d1i*ti
			accI += d1r*ti + d1i*tr
			idx += k
			if idx >= n {
				idx -= n
			}
			tr, ti = wp[2*idx], wp[2*idx+1]
			accR += d2r*tr - d2i*ti
			accI += d2r*ti + d2i*tr
			idx += k
			if idx >= n {
				idx -= n
			}
			tr, ti = wp[2*idx], wp[2*idx+1]
			accR += d3r*tr - d3i*ti
			accI += d3r*ti + d3i*tr
			bre[k] = accR
			bim[k] = accI
			start += base
			if start >= n {
				start -= n
			}
		}
		return
	}
	dre, dim := diffs.Re, diffs.Im
	for k := 0; k < n; k++ {
		accR, accI := bre[k], bim[k]
		idx := start
		for j := 0; j < m; j++ {
			tr, ti := wp[2*idx], wp[2*idx+1]
			dr, di := dre[j], dim[j]
			accR += dr*tr - di*ti
			accI += dr*ti + di*tr
			idx += k
			if idx >= n {
				idx -= n
			}
		}
		bre[k] = accR
		bim[k] = accI
		start += base
		if start >= n {
			start -= n
		}
	}
}

// SlideRotatedBinsPlanar is SlideRotatedBins on planar data: only the
// listed bins are updated, in arithmetic identical to the full planar (and
// interleaved) update; unlisted bins are left untouched.
func (s *SlidingDFT) SlideRotatedBinsPlanar(bins, diffs Planar, delta int, sel []int) {
	n := s.n
	if bins.Len() != n {
		panic(fmt.Sprintf("dsp: SlideRotatedBinsPlanar bins length %d, kernel size %d", bins.Len(), n))
	}
	m := diffs.Len()
	if m == 0 {
		return
	}
	if m > n {
		panic(fmt.Sprintf("dsp: SlideRotatedBinsPlanar step %d exceeds window size %d", m, n))
	}
	wp := s.wP
	base := (n - delta%n) % n
	if base < 0 {
		base += n
	}
	dre, dim := diffs.Re, diffs.Im
	for _, k := range sel {
		accR, accI := bins.Re[k], bins.Im[k]
		idx := (base * k) % n
		for j := 0; j < m; j++ {
			tr, ti := wp[2*idx], wp[2*idx+1]
			dr, di := dre[j], dim[j]
			accR += dr*tr - di*ti
			accI += dr*ti + di*tr
			idx += k
			if idx >= n {
				idx -= n
			}
		}
		bins.Re[k] = accR
		bins.Im[k] = accI
	}
}
