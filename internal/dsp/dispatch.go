package dsp

import "sync/atomic"

// The planar hot kernels (SlideRotatedTab and the
// ForwardPlanar/InversePlanar butterfly stages) have hand-written SIMD
// fast paths: AVX2 on amd64 (gated on runtime CPUID detection) and NEON
// on arm64 (baseline, always available). The Go loops remain the
// universal scalar fallback and the reference semantics; the SIMD
// kernels perform the same floating-point operations in the same
// per-element order, use no FMA and no reassociation, so for finite
// inputs every result is bit-identical to the scalar loop (the
// equivalence and fuzz tests pin this). Builds with
// the purego tag (or any other GOARCH) compile only the scalar code.
//
// Two kernels outside this package share the detection and the switch,
// both in internal/coding's acs_amd64.s: the AVX2 integer Viterbi
// add-compare-select of the hard decoder (int16 lanes that never
// overflow) and the AVX2 float64 one of the soft decoder (the scalar
// loop's adds and comparisons lane for lane, no FMA). Each runs when
// SIMDName reports "avx2" and is bit-identical to its scalar loop.
// Neither has a NEON twin, so on arm64 both decoders stay scalar.
//
// asmOK is set once, at package init, before any other goroutine can
// touch the package; scalarForced is the runtime kill switch.
var (
	asmOK        bool
	asmName      = "scalar"
	scalarForced atomic.Bool
)

// simdEnabled reports whether the dispatched kernels should take the SIMD
// fast path for this call.
func simdEnabled() bool { return asmOK && !scalarForced.Load() }

// ForceScalar disables (true) or re-enables (false) the SIMD fast paths at
// runtime, forcing every dispatched kernel through the scalar Go fallback.
// It is a test hook — the equivalence and fuzz tests run each kernel both
// ways and require bit-identical results — and is safe for concurrent use.
// Re-enabling is a no-op on machines without SIMD support (or under the
// purego build tag, where no SIMD kernels are compiled at all).
func ForceScalar(force bool) { scalarForced.Store(force) }

// SIMDName reports which kernel set the dispatched planar kernels are
// currently using: "avx2", "neon", or "scalar" (no support detected,
// purego build, or ForceScalar(true) in effect).
func SIMDName() string {
	if simdEnabled() {
		return asmName
	}
	return "scalar"
}
