package dsp

import "testing"

// planarOf returns a planar copy of x.
func planarOf(x []complex128) Planar {
	p := NewPlanar(len(x))
	Deinterleave(p, x)
	return p
}

// requirePlanarEqual fails unless p holds exactly the values of want.
// The planar FFT mirrors the interleaved transform operation for
// operation, so equality here is exact value equality (MaxAbsDiff == 0, which treats
// -0 and +0 as equal — the only representation drift the planar forms can
// introduce, from real-scalar multiplies not simulating the interleaved
// form's multiply-by-complex(g,0) zero terms).
func requirePlanarEqual(t *testing.T, ctx string, p Planar, want []complex128) {
	t.Helper()
	got := make([]complex128, p.Len())
	Interleave(got, p)
	if d := MaxAbsDiff(got, want); d != 0 {
		t.Fatalf("%s: planar differs from interleaved by %g", ctx, d)
	}
}

func TestPlanarConvertersRoundTrip(t *testing.T) {
	r := NewRand(5)
	x := randSignal(r, 77)
	p := planarOf(x)
	if p.Len() != len(x) {
		t.Fatalf("Len = %d, want %d", p.Len(), len(x))
	}
	for i, v := range x {
		if p.At(i) != v {
			t.Fatalf("At(%d) = %v, want %v", i, p.At(i), v)
		}
	}
	back := make([]complex128, len(x))
	Interleave(back, p)
	if d := MaxAbsDiff(back, x); d != 0 {
		t.Fatalf("round trip drifts by %g", d)
	}
	// Aliasing rule: a copied Planar value aliases the same planes.
	q := p
	q.Re[0] = 42
	if p.Re[0] != 42 {
		t.Fatal("copied Planar does not alias its planes")
	}
	// NewPlanar carves both planes from one backing array but they must
	// not overlap.
	n := NewPlanar(4)
	for i := range n.Re {
		n.Re[i] = 1
	}
	for _, v := range n.Im {
		if v != 0 {
			t.Fatal("NewPlanar planes overlap")
		}
	}

	// Length mismatches must panic rather than silently truncate.
	for name, f := range map[string]func(){
		"deinterleave": func() { Deinterleave(NewPlanar(3), x) },
		"interleave":   func() { Interleave(make([]complex128, 3), p) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s length mismatch did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestForwardInversePlanarMatchesInterleaved(t *testing.T) {
	r := NewRand(31)
	for _, n := range []int{4, 64, 256} {
		plan := MustFFTPlan(n)
		x := randSignal(r, n)

		fwd := append([]complex128(nil), x...)
		plan.Forward(fwd)
		pf := planarOf(x)
		plan.ForwardPlanar(pf)
		requirePlanarEqual(t, "forward", pf, fwd)

		inv := append([]complex128(nil), x...)
		plan.Inverse(inv)
		pi := planarOf(x)
		plan.InversePlanar(pi)
		requirePlanarEqual(t, "inverse", pi, inv)

		pu := planarOf(x)
		plan.InversePlanarUnscaled(pu)
		pu.Scale(1 / float64(n))
		requirePlanarEqual(t, "unscaled inverse", pu, inv)
	}
}

// TestSlideRotatedTabMatchesBins pins the precomputed-schedule kernel to
// the direct reference slideRotatedBinsRef: identical values at the
// selected bins, untouched elsewhere, both aliased (dst == src) and
// copying (dst != src).
func TestSlideRotatedTabMatchesBins(t *testing.T) {
	const n = 64
	r := NewRand(23)
	x := randSignal(r, 6*n)
	s := MustSlidingDFT(n)
	sel := []int{1, 2, 30, 31, 62}
	for _, m := range []int{1, 2, 3, 4, 5} {
		for _, delta := range []int{0, 5, 16, n, n + 3, -7} {
			want := FFT(x[:n])
			diffs := make([]complex128, m)
			for j := range diffs {
				diffs[j] = x[n+j] - x[j]
			}
			src := planarOf(want)
			dst := NewPlanar(n)
			for i := range dst.Re {
				dst.Re[i] = 999 // sentinel: unselected bins must stay untouched
				dst.Im[i] = -999
			}
			tab, err := s.SlideTabFor(delta, m, sel)
			if err != nil {
				t.Fatal(err)
			}
			s.SlideRotatedTab(dst, src, planarOf(diffs), tab)
			slideRotatedBinsRef(s, want, diffs, delta, sel)
			for _, k := range sel {
				if dst.At(k) != want[k] {
					t.Fatalf("m=%d delta=%d bin %d: tab %v, want %v", m, delta, k, dst.At(k), want[k])
				}
			}
			inSel := func(k int) bool {
				for _, s := range sel {
					if s == k {
						return true
					}
				}
				return false
			}
			for k := 0; k < n; k++ {
				if !inSel(k) && (dst.Re[k] != 999 || dst.Im[k] != -999) {
					t.Fatalf("m=%d delta=%d: unselected bin %d was written", m, delta, k)
				}
			}
			// Aliased (in-place) form.
			s.SlideRotatedTab(src, src, planarOf(diffs), tab)
			for _, k := range sel {
				if src.At(k) != want[k] {
					t.Fatalf("m=%d delta=%d bin %d aliased: %v, want %v", m, delta, k, src.At(k), want[k])
				}
			}
		}
	}
	// Cached tables must be shared.
	t1, err := s.SlideTabFor(9, 4, sel)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := s.SlideTabFor(9+n, 4, sel) // delta reduced mod n → same schedule
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Fatal("equivalent slide tables were not shared")
	}
	if _, err := s.SlideTabFor(1, 0, sel); err == nil {
		t.Fatal("zero step accepted")
	}
	if _, err := s.SlideTabFor(1, 4, []int{n}); err == nil {
		t.Fatal("out-of-range bin accepted")
	}
}

// BenchmarkPlanarForward256 measures the planar FFT butterflies at the
// receiver's composite-grid size (compare BenchmarkForward256).
func BenchmarkPlanarForward256(b *testing.B) {
	const n = 256
	p := MustFFTPlan(n)
	r := NewRand(1)
	x := planarOf(randSignal(r, n))
	buf := NewPlanar(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf.Re, x.Re)
		copy(buf.Im, x.Im)
		p.ForwardPlanar(buf)
	}
}

// BenchmarkPlanarSlideRotatedTab measures the precomputed-schedule sparse
// rotated slide on the receiver hot-path shape: 52 selected bins of a
// 256-bin window, stride-4 diffs.
func BenchmarkPlanarSlideRotatedTab(b *testing.B) {
	const n = 256
	s := MustSlidingDFT(n)
	r := NewRand(1)
	x := randSignal(r, 2*n)
	bins := planarOf(FFT(x[:n]))
	diffs := planarOf(x[n : n+4])
	sel := make([]int, 0, 52)
	for k := 38; k <= 90; k++ {
		if k != 64 {
			sel = append(sel, k)
		}
	}
	tab, err := s.SlideTabFor(60, 4, sel)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SlideRotatedTab(bins, bins, diffs, tab)
	}
}

// BenchmarkPlanarForward256Scalar is BenchmarkPlanarForward256 with the
// SIMD dispatch forced off — the trajectory records both paths so the
// speedup (and any scalar regression) stays visible.
func BenchmarkPlanarForward256Scalar(b *testing.B) {
	ForceScalar(true)
	defer ForceScalar(false)
	BenchmarkPlanarForward256(b)
}

// BenchmarkPlanarSlideRotatedTabScalar is BenchmarkPlanarSlideRotatedTab
// with the SIMD dispatch forced off.
func BenchmarkPlanarSlideRotatedTabScalar(b *testing.B) {
	ForceScalar(true)
	defer ForceScalar(false)
	BenchmarkPlanarSlideRotatedTab(b)
}
