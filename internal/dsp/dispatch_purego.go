//go:build purego || !(amd64 || arm64)

package dsp

// This build has no SIMD kernels: either the purego tag forced the scalar
// fallback at compile time, or the target architecture has no asm
// implementation. Every dispatch hook below is an inert stub, so the
// planar kernels run their scalar Go bodies unconditionally and the full
// test suite exercises exactly the fallback code (the CI purego job
// builds and tests this configuration).

// buildVecTwiddles is a no-op: without SIMD kernels no stage-vector
// twiddle layout is needed.
func (p *FFTPlan) buildVecTwiddles() {}

// transformPlanarSIMD always declines, sending the transform down the
// scalar butterfly stages.
func (p *FFTPlan) transformPlanarSIMD(re, im []float64, fwd bool) bool { return false }

// buildVec is a no-op: tab.runs stays nil, so SlideRotatedTab never
// dispatches.
func (t *SlideTab) buildVec() {}

// slideTabASM exists so SlideRotatedTab's (statically dead, since
// tab.runs is always nil here) dispatch branch compiles.
func slideTabASM(dre, dim, sre, sim, dfr, dfi, twV *float64, runs *int, m, nruns int) {
	panic("dsp: slideTabASM called without SIMD support")
}
