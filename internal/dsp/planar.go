package dsp

import "fmt"

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
