package dsp

import (
	"math"
	"testing"
)

// randSignal returns a deterministic complex test signal of length n.
func randSignal(r *Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return x
}

// slideRotatedBinsRef is the direct form of the rotated slide that
// SlideRotatedTab tabulates: for each selected bin k, bins[k] +=
// Σ_j diffs[j]·e^{+i 2π k (δ−j) / N}, walking the twiddle index by k per
// j in complex128 arithmetic. The table kernel is pinned to it bit for
// bit; the ramped-FFT tests below pin both to the mathematics.
func slideRotatedBinsRef(s *SlidingDFT, bins, diffs []complex128, delta int, sel []int) {
	n := s.n
	base := (n - delta%n) % n
	if base < 0 {
		base += n
	}
	for _, k := range sel {
		acc := bins[k]
		idx := (base * k) % n
		for j := range diffs {
			acc += diffs[j] * complex(s.wP[2*idx], s.wP[2*idx+1])
			idx += k
			if idx >= n {
				idx -= n
			}
		}
		bins[k] = acc
	}
}

// allBins returns the full selection 0..n-1.
func allBins(n int) []int {
	sel := make([]int, n)
	for k := range sel {
		sel[k] = k
	}
	return sel
}

// diffsAt returns the m sample differences x[start+n+j] − x[start+j] of a
// slide of the n-sample window at start.
func diffsAt(x []complex128, start, n, m int) []complex128 {
	d := make([]complex128, m)
	for j := range d {
		d[j] = x[start+n+j] - x[start+j]
	}
	return d
}

// rampBins applies the Eq. 2 ramp of slope delta: bins[k] *=
// e^{+i 2π k delta / n}, with delta reduced mod n first.
func rampBins(bins []complex128, delta int) {
	n := len(bins)
	delta = (delta%n + n) % n
	for k := range bins {
		sv, cv := math.Sincos(2 * math.Pi * float64(k) * float64(delta) / float64(n))
		bins[k] *= complex(cv, sv)
	}
}

// rampedDFT returns R_δ·DFT(x) for a power-of-two len(x).
func rampedDFT(x []complex128, delta int) []complex128 {
	out := FFT(x)
	rampBins(out, delta)
	return out
}

// slideAt advances bins in place by one rotated slide of len(diffs)
// samples with pre-slide slope delta, at the selected bins.
func slideAt(t *testing.T, s *SlidingDFT, bins Planar, diffs []complex128, delta int, sel []int) {
	t.Helper()
	tab, err := s.SlideTabFor(delta, len(diffs), sel)
	if err != nil {
		t.Fatal(err)
	}
	s.SlideRotatedTab(bins, bins, planarOf(diffs), tab)
}

// planarDiff is MaxAbsDiff between a planar vector and want.
func planarDiff(p Planar, want []complex128) float64 {
	got := make([]complex128, p.Len())
	Interleave(got, p)
	return MaxAbsDiff(got, want)
}

// TestSlidingDFTMatchesForward slides a rotated spectrum over a long
// random stream with every stride in 1..5 across several window sizes,
// comparing each slid spectrum against a directly transformed and ramped
// copy of the same window. The tolerance bounds the per-slide numerical
// drift of the recurrence; hundreds of consecutive slides stay far below
// 1e-9.
func TestSlidingDFTMatchesForward(t *testing.T) {
	r := NewRand(42)
	for _, n := range []int{8, 64, 256} {
		x := randSignal(r, n+1024)
		all := allBins(n)
		for _, stride := range []int{1, 2, 3, 4, 5} {
			s := MustSlidingDFT(n)
			delta := n / 4
			bins := planarOf(rampedDFT(x[:n], delta))
			slides := 0
			for start := 0; start+stride+n <= len(x); start += stride {
				slideAt(t, s, bins, diffsAt(x, start, n, stride), delta, all)
				delta -= stride
				slides++
				// Spot-check every few slides (and always the last) to keep
				// the oracle cost down.
				if slides%7 != 0 && start+2*stride+n <= len(x) {
					continue
				}
				want := rampedDFT(x[start+stride:start+stride+n], delta)
				if d := planarDiff(bins, want); d > 1e-9 {
					t.Fatalf("n=%d stride=%d after %d slides: max diff %g", n, stride, slides, d)
				}
			}
			if slides < 100 {
				t.Fatalf("n=%d stride=%d: only %d slides exercised", n, stride, slides)
			}
		}
	}
}

// TestSlidingDFTMixedSteps advances by a different step each slide,
// including a full window m = N; a zero step and one beyond the window
// are rejected when the schedule is built.
func TestSlidingDFTMixedSteps(t *testing.T) {
	const n = 64
	r := NewRand(7)
	x := randSignal(r, 4*n)
	s := MustSlidingDFT(n)
	all := allBins(n)
	delta := 0
	bins := planarOf(rampedDFT(x[:n], delta))
	start := 0
	for _, m := range []int{1, 3, 4, 2, n, 5, 1} {
		if start+m+n > len(x) {
			break
		}
		slideAt(t, s, bins, diffsAt(x, start, n, m), delta, all)
		delta -= m
		start += m
		if d := planarDiff(bins, rampedDFT(x[start:start+n], delta)); d > 1e-10 {
			t.Fatalf("after step %d (window at %d): max diff %g", m, start, d)
		}
	}
	for _, m := range []int{0, n + 1} {
		if _, err := s.SlideTabFor(0, m, all); err == nil {
			t.Fatalf("step %d accepted", m)
		}
	}
}

// TestSlidingDFTNonPow2 checks the kernel against the naive DFT for a
// window size the radix-2 FFT cannot handle.
func TestSlidingDFTNonPow2(t *testing.T) {
	const n = 12
	r := NewRand(3)
	x := randSignal(r, 5*n)
	s := MustSlidingDFT(n)
	all := allBins(n)
	delta := 5
	first := DFTNaive(x[:n])
	rampBins(first, delta)
	bins := planarOf(first)
	for start := 0; start+1+n <= 3*n; start++ {
		slideAt(t, s, bins, diffsAt(x, start, n, 1), delta, all)
		delta--
		want := DFTNaive(x[start+1 : start+1+n])
		rampBins(want, delta)
		if d := planarDiff(bins, want); d > 1e-9 {
			t.Fatalf("start %d: max diff %g", start+1, d)
		}
	}
}

func TestPlanForCachesAndTransforms(t *testing.T) {
	p1, err := PlanFor(128)
	if err != nil {
		t.Fatal(err)
	}
	p2 := MustPlanFor(128)
	if p1 != p2 {
		t.Fatal("PlanFor returned distinct plans for one size")
	}
	if _, err := PlanFor(100); err == nil {
		t.Fatal("PlanFor accepted a non-power-of-two size")
	}
	// A cached plan must behave exactly like a fresh one.
	r := NewRand(9)
	x := randSignal(r, 128)
	fresh := make([]complex128, 128)
	copy(fresh, x)
	MustFFTPlan(128).Forward(fresh)
	cached := make([]complex128, 128)
	copy(cached, x)
	p1.Forward(cached)
	if d := MaxAbsDiff(fresh, cached); d != 0 {
		t.Fatalf("cached plan diverges from fresh plan by %g", d)
	}
}

// wrapPhaseLoop is the original O(|θ|/π) reference implementation.
func wrapPhaseLoop(theta float64) float64 {
	for theta > math.Pi {
		theta -= 2 * math.Pi
	}
	for theta <= -math.Pi {
		theta += 2 * math.Pi
	}
	return theta
}

func TestWrapPhaseMatchesLoop(t *testing.T) {
	r := NewRand(17)
	for i := 0; i < 20000; i++ {
		theta := (r.Float64() - 0.5) * 8 * math.Pi
		got, want := WrapPhase(theta), wrapPhaseLoop(theta)
		tol := 0.0
		if math.Abs(theta) >= 3*math.Pi {
			tol = 1e-12 // far range uses math.Mod, LSB differences allowed
		}
		if math.Abs(got-want) > tol {
			t.Fatalf("WrapPhase(%v) = %v, loop reference %v", theta, got, want)
		}
	}
	// One-turn-off inputs must be bit-identical to the reference (these feed
	// the KDE kernels).
	for i := 0; i < 20000; i++ {
		theta := (r.Float64() - 0.5) * 4 * math.Pi
		if got, want := WrapPhase(theta), wrapPhaseLoop(theta); got != want {
			t.Fatalf("WrapPhase(%v) = %v, want bit-identical %v", theta, got, want)
		}
	}
	if got := WrapPhase(1e9); got <= -math.Pi || got > math.Pi {
		t.Fatalf("WrapPhase(1e9) = %v out of range", got)
	}
}

func TestFreqShiftPhasorAccuracy(t *testing.T) {
	r := NewRand(23)
	n := 256
	x := randSignal(r, 5000)
	got := append([]complex128(nil), x...)
	FreqShift(got, 3.7, n, 129)
	want := append([]complex128(nil), x...)
	for ti := range want {
		theta := 2 * math.Pi * 3.7 / float64(n) * float64(129+ti)
		s, c := math.Sincos(theta)
		want[ti] *= complex(c, s)
	}
	if d := MaxAbsDiff(got, want); d > 1e-12 {
		t.Fatalf("phasor recurrence drifts by %g from exact rotation", d)
	}
}

func BenchmarkForward256(b *testing.B) {
	const n = 256
	p := MustFFTPlan(n)
	r := NewRand(1)
	x := randSignal(r, n)
	buf := make([]complex128, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		p.Forward(buf)
	}
}

func BenchmarkFreqShift(b *testing.B) {
	r := NewRand(1)
	x := randSignal(r, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FreqShift(x, 0.37, 256, 0)
	}
}

// TestSlideRotatedMatchesRampedForward checks the rotated-domain slide
// on a mixed step walk: starting from a ramped spectrum R_δ·DFT(w₀), the
// full-selection slides must track R_{δ−Σm}·DFT(w_t) as computed
// directly, and a sparse selection must match the full update exactly at
// its bins.
func TestSlideRotatedMatchesRampedForward(t *testing.T) {
	const n = 64
	r := NewRand(11)
	x := randSignal(r, 6*n)
	s := MustSlidingDFT(n)
	all := allBins(n)

	delta := 16
	spec := rampedDFT(x[:n], delta)
	bins := planarOf(spec)
	sel := []int{0, 1, 5, 17, 40, 63}
	sparse := planarOf(spec)

	start := 0
	for _, m := range []int{1, 4, 2, 3, 4, 1, 1} {
		d := diffsAt(x, start, n, m)
		slideAt(t, s, bins, d, delta, all)
		slideAt(t, s, sparse, d, delta, sel)
		delta -= m
		start += m

		if diff := planarDiff(bins, rampedDFT(x[start:start+n], delta)); diff > 1e-10 {
			t.Fatalf("after slide to %d (δ=%d): diff %g", start, delta, diff)
		}
		for _, k := range sel {
			if sparse.At(k) != bins.At(k) {
				t.Fatalf("sparse bin %d: %v, full update %v", k, sparse.At(k), bins.At(k))
			}
		}
	}
}
