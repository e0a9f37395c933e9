// Package dsp provides the discrete-time signal processing primitives the
// rest of the repository is built on: complex-vector arithmetic, a radix-2
// FFT/IFFT, frequency shifting, correlation, power and dB conversions, and
// small statistics helpers.
//
// Everything operates on []complex128 in place where it safely can, and all
// transforms are deterministic: there is no hidden global state.
//
// # SIMD dispatch
//
// The two hottest planar kernels — SlidingDFT.SlideRotatedTab and the
// FFTPlan.ForwardPlanar/InversePlanar butterfly stages — have
// hand-written assembly fast paths: AVX2 on amd64 (selected at package
// init by CPUID feature detection: OSXSAVE + AVX + YMM-enabled XCR0 +
// AVX2) and NEON on arm64 (baseline, always on). The Go loops remain the
// complete, universal fallback: builds tagged purego (and every other
// GOARCH) compile only the scalar code, and the ForceScalar test hook
// flips a live process onto the fallback at any time.
//
// The dispatch contract is bit-exactness: the SIMD kernels perform the
// same floating-point operations in the same per-element order as the
// scalar loops — plain vector multiply/add/subtract only, never FMA,
// never reassociation — so for finite inputs every result is
// bit-identical to the fallback (NaN payload propagation is the one
// place x86 vector semantics depend on operand order, which the
// contract does not constrain). Lanes always hold independent bins;
// anything inherently serial (bit-reversal) stays scalar inside the
// dispatched path. The equivalence tests and the FuzzForwardPlanar /
// FuzzSlideRotatedTab targets pin dispatched against forced-scalar
// results bitwise, and the same-seed regression pins hold with SIMD
// enabled.
//
// To feed the vector loads as linear streams, the twiddle schedules are
// re-laid-out at build time (dsp.SlideTab splits its bin selection into
// dense runs of consecutive bins with lane-transposed twiddles;
// FFTPlan keeps stage-major vector twiddle tables). All vector memory
// access is unaligned; callers need no padding or alignment.
//
// # Planar layout
//
// The receiver hot kernels run in planar (split re/im,
// structure-of-arrays) form on the Planar buffer type: the FFT
// butterflies (FFTPlan.ForwardPlanar/InversePlanar) and the sliding-DFT
// update (SlidingDFT.SlideRotatedTab with its precomputed SlideTab
// schedule). Two flat float64 planes keep the inner loops free of the
// scalar-pair shuffling interleaved complex values force on the
// compiler. The planar FFT performs the same floating-point operations
// in the same order as the interleaved Forward/Inverse, so results are
// value-identical (only the sign of a zero may differ, which compares
// equal). Convert at algorithm boundaries only — Deinterleave on entry,
// Interleave on exit — and never inside a per-symbol loop;
// internal/ofdm's batch segment demodulation stays planar from the seed
// FFT through the last slide and hands planar windows to internal/rx,
// which interleaves single values at the equalizer boundary.
package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"
)

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// NextPow2 returns the smallest power of two >= n. It panics if n <= 0 or if
// the result would overflow an int.
func NextPow2(n int) int {
	if n <= 0 {
		panic("dsp: NextPow2 of non-positive length")
	}
	p := 1
	for p < n {
		if p > math.MaxInt/2 {
			panic("dsp: NextPow2 overflow")
		}
		p <<= 1
	}
	return p
}

// FFTPlan caches the twiddle factors and bit-reversal permutation for a
// fixed transform size so repeated transforms avoid recomputing them.
// A plan is safe for concurrent use once created.
type FFTPlan struct {
	n       int
	rev     []int
	fwd     []complex128 // forward twiddles e^{-i 2π k / n}, len n/2
	inv     []complex128 // inverse twiddles e^{+i 2π k / n}, len n/2
	scratch bool
	// Copies of fwd/inv as adjacent (re, im) float pairs for the planar
	// transforms (same values).
	fwdP, invP []float64
	// revPairs lists the (i, r) swaps of the bit-reversal permutation
	// (i < r only), so the planar transforms apply it without the
	// per-index comparison.
	revPairs []int32
	// Stage-major vector twiddle layouts for the SIMD butterfly stages
	// (see dispatch_asm.go); nil on scalar-only builds/machines or for
	// plans below 8 points. The values are copies of fwdP/invP.
	fwdV, invV   []float64
	fwdS2, invS2 []float64
}

// NewFFTPlan creates a plan for transforms of the given power-of-two size.
func NewFFTPlan(n int) (*FFTPlan, error) {
	if !IsPow2(n) {
		return nil, fmt.Errorf("dsp: FFT size %d is not a power of two", n)
	}
	p := &FFTPlan{n: n}
	p.rev = make([]int, n)
	bits := 0
	for 1<<bits < n {
		bits++
	}
	for i := 0; i < n; i++ {
		r := 0
		for b := 0; b < bits; b++ {
			if i&(1<<b) != 0 {
				r |= 1 << (bits - 1 - b)
			}
		}
		p.rev[i] = r
	}
	for i, r := range p.rev {
		if i < r {
			p.revPairs = append(p.revPairs, int32(i), int32(r))
		}
	}
	half := n / 2
	p.fwd = make([]complex128, half)
	p.inv = make([]complex128, half)
	p.fwdP = make([]float64, 2*half)
	p.invP = make([]float64, 2*half)
	for k := 0; k < half; k++ {
		theta := 2 * math.Pi * float64(k) / float64(n)
		s, c := math.Sincos(theta)
		p.fwd[k] = complex(c, -s)
		p.inv[k] = complex(c, s)
		p.fwdP[2*k], p.fwdP[2*k+1] = c, -s
		p.invP[2*k], p.invP[2*k+1] = c, s
	}
	p.buildVecTwiddles()
	return p, nil
}

// bitrevPlanar applies the bit-reversal permutation to both planes via
// the precomputed swap list.
func bitrevPlanar(pairs []int32, re, im []float64) {
	for p := 0; p < len(pairs); p += 2 {
		i, r := pairs[p], pairs[p+1]
		re[i], re[r] = re[r], re[i]
		im[i], im[r] = im[r], im[i]
	}
}

// MustFFTPlan is NewFFTPlan but panics on error; intended for fixed,
// compile-time-known sizes.
func MustFFTPlan(n int) *FFTPlan {
	p, err := NewFFTPlan(n)
	if err != nil {
		panic(err)
	}
	return p
}

// planCache holds one immutable FFTPlan per transform size for the whole
// process, so hot paths that construct transforms per packet (receivers,
// channels, modulators) never rebuild twiddle and bit-reversal tables.
var planCache sync.Map // int -> *FFTPlan

// PlanFor returns the process-wide shared plan for power-of-two size n,
// creating and caching it on first use. Plans are immutable after
// construction, so the returned plan is safe for concurrent use.
func PlanFor(n int) (*FFTPlan, error) {
	if v, ok := planCache.Load(n); ok {
		return v.(*FFTPlan), nil
	}
	p, err := NewFFTPlan(n)
	if err != nil {
		return nil, err
	}
	v, _ := planCache.LoadOrStore(n, p)
	return v.(*FFTPlan), nil
}

// MustPlanFor is PlanFor but panics on error.
func MustPlanFor(n int) *FFTPlan {
	p, err := PlanFor(n)
	if err != nil {
		panic(err)
	}
	return p
}

func (p *FFTPlan) transform(x []complex128, tw []complex128) {
	n := p.n
	for i, r := range p.rev {
		if i < r {
			x[i], x[r] = x[r], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := n / size
		for start := 0; start < n; start += size {
			k := 0
			for j := start; j < start+half; j++ {
				t := tw[k] * x[j+half]
				x[j+half] = x[j] - t
				x[j] = x[j] + t
				k += step
			}
		}
	}
}

// Forward computes the in-place forward DFT
// X[k] = Σ_n x[n]·e^{-i2πkn/N} of a slice whose length equals the plan size.
func (p *FFTPlan) Forward(x []complex128) {
	if len(x) != p.n {
		panic(fmt.Sprintf("dsp: Forward length %d, plan size %d", len(x), p.n))
	}
	p.transform(x, p.fwd)
}

// Inverse computes the in-place inverse DFT including the 1/N scaling,
// x[n] = (1/N) Σ_k X[k]·e^{+i2πkn/N}.
func (p *FFTPlan) Inverse(x []complex128) {
	if len(x) != p.n {
		panic(fmt.Sprintf("dsp: Inverse length %d, plan size %d", len(x), p.n))
	}
	p.transform(x, p.inv)
	scale := complex(1/float64(p.n), 0)
	for i := range x {
		x[i] *= scale
	}
}

// FFT returns the forward DFT of x in a fresh slice. The length of x must be
// a power of two. The plan is taken from the process-wide cache.
func FFT(x []complex128) []complex128 {
	p := MustPlanFor(len(x))
	out := make([]complex128, len(x))
	copy(out, x)
	p.Forward(out)
	return out
}

// IFFT returns the inverse DFT (with 1/N scaling) of x in a fresh slice.
// The plan is taken from the process-wide cache.
func IFFT(x []complex128) []complex128 {
	p := MustPlanFor(len(x))
	out := make([]complex128, len(x))
	copy(out, x)
	p.Inverse(out)
	return out
}

// DFTNaive computes the forward DFT directly in O(n²); used as a test oracle
// for the fast transform and for non-power-of-two lengths in analyses.
func DFTNaive(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var acc complex128
		for t := 0; t < n; t++ {
			theta := 2 * math.Pi * float64(k) * float64(t) / float64(n)
			s, c := math.Sincos(theta)
			acc += x[t] * complex(c, -s)
		}
		out[k] = acc
	}
	return out
}

// freqShiftResync bounds the phasor recurrence error in FreqShift: the
// rotator is recomputed exactly every freqShiftResync samples, so the
// accumulated error stays within a few machine epsilons.
const freqShiftResync = 64

// FreqShift multiplies x in place by e^{+i 2π (shift/n) t}, translating the
// spectrum up by shift FFT bins (of an n-point grid). startSample offsets the
// phase ramp so that consecutive blocks of one stream stay phase-continuous.
//
// The rotation uses a phasor recurrence (one complex multiply per sample)
// instead of a per-sample Sincos, resynchronised to the exact angle every
// freqShiftResync samples to keep the drift below ~1e-14 radians.
func FreqShift(x []complex128, shiftBins float64, n int, startSample int) {
	w := 2 * math.Pi * shiftBins / float64(n)
	ss, cs := math.Sincos(w)
	step := complex(cs, ss)
	var rot complex128
	for t := range x {
		if t%freqShiftResync == 0 {
			s, c := math.Sincos(w * float64(startSample+t))
			rot = complex(c, s)
		}
		x[t] *= rot
		rot *= step
	}
}

// CyclicShift returns x circularly shifted left by k samples
// (out[i] = x[(i+k) mod n]). Negative k shifts right. Allocates the
// result; hot paths should use CyclicShiftInto with a reused buffer.
func CyclicShift(x []complex128, k int) []complex128 {
	out := make([]complex128, len(x))
	CyclicShiftInto(out, x, k)
	return out
}

// CyclicShiftInto writes x circularly shifted left by k samples into dst
// (dst[i] = x[(i+k) mod n]), as two straight copies instead of a modulo
// per sample. dst must have the same length as x and must not alias it.
func CyclicShiftInto(dst, x []complex128, k int) {
	n := len(x)
	if len(dst) != n {
		panic(fmt.Sprintf("dsp: CyclicShiftInto dst length %d, src length %d", len(dst), n))
	}
	if n == 0 {
		return
	}
	k = ((k % n) + n) % n
	copy(dst, x[k:])
	copy(dst[n-k:], x[:k])
}

// Abs returns |v| via a plain sqrt. Unlike cmplx.Abs (math.Hypot) it does
// no overflow/underflow guarding, which is fine for the O(1)-magnitude
// baseband samples and constellation distances this repository works
// with, and several times faster — receivers evaluate it per (candidate,
// segment, subcarrier).
func Abs(v complex128) float64 {
	return math.Sqrt(real(v)*real(v) + imag(v)*imag(v))
}

// Power returns the mean squared magnitude of x; zero for an empty slice.
func Power(x []complex128) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return s / float64(len(x))
}

// Energy returns the total squared magnitude of x.
func Energy(x []complex128) float64 {
	var s float64
	for _, v := range x {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return s
}

// DB converts a linear power ratio to decibels. DB(0) returns -Inf.
func DB(p float64) float64 {
	return 10 * math.Log10(p)
}

// FromDB converts decibels to a linear power ratio.
func FromDB(db float64) float64 {
	return math.Pow(10, db/10)
}

// Scale multiplies x in place by the real factor g.
func Scale(x []complex128, g float64) {
	c := complex(g, 0)
	for i := range x {
		x[i] *= c
	}
}

// AddInto accumulates src into dst starting at dst[offset]; samples falling
// outside dst are ignored, and not read, so callers can mix arbitrarily
// offset signals.
func AddInto(dst, src []complex128, offset int) {
	lo, hi := max(0, -offset), min(len(src), len(dst)-offset)
	for i := lo; i < hi; i++ {
		dst[offset+i] += src[i]
	}
}

// Conv returns the full linear convolution of x and h (length
// len(x)+len(h)-1); used by the multipath channel.
func Conv(x, h []complex128) []complex128 {
	if len(x) == 0 || len(h) == 0 {
		return nil
	}
	out := make([]complex128, len(x)+len(h)-1)
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		for j, hv := range h {
			out[i+j] += xv * hv
		}
	}
	return out
}

// AutoCorr returns Σ_t x[t]·conj(x[t+lag]) over the overlapping range;
// the building block of Schmidl–Cox style detectors.
func AutoCorr(x []complex128, lag, length int) complex128 {
	var acc complex128
	for t := 0; t < length && t+lag < len(x); t++ {
		acc += x[t] * cmplx.Conj(x[t+lag])
	}
	return acc
}

// CrossCorr returns Σ_t a[t]·conj(b[t]) over min(len(a), len(b)) samples.
func CrossCorr(a, b []complex128) complex128 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var acc complex128
	for t := 0; t < n; t++ {
		acc += a[t] * cmplx.Conj(b[t])
	}
	return acc
}

// Mean returns the arithmetic mean of a real sample set; zero if empty.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Variance returns the unbiased sample variance of x; zero if len(x) < 2.
func Variance(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x)-1)
}

// StdDev returns the unbiased sample standard deviation of x.
func StdDev(x []float64) float64 { return math.Sqrt(Variance(x)) }

// Centroid returns the arithmetic mean of a set of complex points; zero for
// an empty set. CPRecycle centres its decoding sphere on this value.
func Centroid(pts []complex128) complex128 {
	if len(pts) == 0 {
		return 0
	}
	var acc complex128
	for _, p := range pts {
		acc += p
	}
	return acc / complex(float64(len(pts)), 0)
}

// MaxAbsDiff returns the largest |a[i]-b[i]|; slices must be equally long.
func MaxAbsDiff(a, b []complex128) float64 {
	if len(a) != len(b) {
		panic("dsp: MaxAbsDiff length mismatch")
	}
	var m float64
	for i := range a {
		d := cmplx.Abs(a[i] - b[i])
		if d > m {
			m = d
		}
	}
	return m
}

// WrapPhase maps an angle in radians to (-π, π] in constant time. Angles
// within one turn of the target interval (the overwhelmingly common case —
// e.g. differences of two wrapped phases) are corrected by a single exact
// add/subtract; anything farther out is reduced with math.Mod.
func WrapPhase(theta float64) float64 {
	switch {
	case theta > -math.Pi && theta <= math.Pi:
		return theta
	case theta > math.Pi && theta <= 3*math.Pi:
		return theta - 2*math.Pi
	case theta <= -math.Pi && theta > -3*math.Pi:
		return theta + 2*math.Pi
	}
	theta = math.Mod(theta+math.Pi, 2*math.Pi)
	if theta <= 0 {
		theta += 2 * math.Pi
	}
	return theta - math.Pi
}
