package dsp

import (
	"math"
	"strconv"
	"testing"
)

// The SIMD dispatch contract: every dispatched kernel must produce
// bit-identical results to its scalar Go twin for finite inputs (no FMA,
// no reassociation, scalar operation order per element — see
// dispatch.go). These tests run each kernel through the live dispatch
// path and through ForceScalar(true) on identical inputs and require
// float64-bit equality. On machines (or builds) without SIMD support
// both runs take the scalar path and the tests pass trivially; the CI
// purego job pins that configuration explicitly.

// forceScalarDuring runs fn with the scalar fallback forced, restoring
// the dispatch state after.
func forceScalarDuring(fn func()) {
	ForceScalar(true)
	defer ForceScalar(false)
	fn()
}

// requireBitsEqual fails unless a and b are bitwise identical float64
// slices.
func requireBitsEqual(t *testing.T, ctx string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", ctx, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: index %d: %v (%#x) != %v (%#x)",
				ctx, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func requirePlanarBitsEqual(t *testing.T, ctx string, got, want Planar) {
	t.Helper()
	requireBitsEqual(t, ctx+" (re)", got.Re, want.Re)
	requireBitsEqual(t, ctx+" (im)", got.Im, want.Im)
}

func TestSIMDTransformPlanarMatchesScalar(t *testing.T) {
	t.Logf("dispatch: %s", SIMDName())
	r := NewRand(11)
	for _, n := range []int{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024} {
		p := MustFFTPlan(n)
		x := randSignal(r, n)
		for _, fwd := range []bool{true, false} {
			simd := planarOf(x)
			scalar := planarOf(x)
			if fwd {
				p.ForwardPlanar(simd)
				forceScalarDuring(func() { p.ForwardPlanar(scalar) })
			} else {
				p.InversePlanar(simd)
				forceScalarDuring(func() { p.InversePlanar(scalar) })
			}
			ctx := "forward"
			if !fwd {
				ctx = "inverse"
			}
			requirePlanarBitsEqual(t, ctx+"/"+strconv.Itoa(n), simd, scalar)
		}
	}
}

func TestSIMDSlideRotatedTabMatchesScalar(t *testing.T) {
	r := NewRand(13)
	type shape struct {
		name string
		sel  func(n int) []int
	}
	shapes := []shape{
		{"contiguous", func(n int) []int {
			sel := make([]int, 0, n/2)
			for k := n / 4; k < n/4+n/2 && k < n; k++ {
				sel = append(sel, k)
			}
			return sel
		}},
		{"gap", func(n int) []int {
			var sel []int
			for k := 2; k < n-2; k++ {
				if k != n/2 {
					sel = append(sel, k)
				}
			}
			return sel
		}},
		{"scattered", func(n int) []int {
			var sel []int
			for k := 0; k < n; k += 3 {
				sel = append(sel, k)
			}
			return sel
		}},
		{"short-runs", func(n int) []int {
			var sel []int
			for k := 0; k+2 < n; k += 5 {
				sel = append(sel, k, k+1, k+2)
			}
			return sel
		}},
		{"singleton", func(n int) []int { return []int{n - 1} }},
		{"empty", func(n int) []int { return nil }},
	}
	for _, n := range []int{4, 12, 64, 100, 256} {
		s := MustSlidingDFT(n)
		for _, m := range []int{1, 2, 3, 4} {
			if m > n {
				continue
			}
			for _, delta := range []int{0, 1, 7, -3, n + 5} {
				for _, sh := range shapes {
					sel := sh.sel(n)
					tab, err := s.SlideTabFor(delta, m, sel)
					if err != nil {
						t.Fatal(err)
					}
					binsC := randSignal(r, n)
					bins := planarOf(binsC)
					diffs := planarOf(randSignal(r, m))
					// Distinct dst/src.
					base := randSignal(r, n)
					dstSIMD, dstScalar := planarOf(base), planarOf(base)
					s.SlideRotatedTab(dstSIMD, bins, diffs, tab)
					forceScalarDuring(func() { s.SlideRotatedTab(dstScalar, bins, diffs, tab) })
					ctx := "tab/" + sh.name + "/n=" + strconv.Itoa(n) + "/m=" + strconv.Itoa(m)
					requirePlanarBitsEqual(t, ctx, dstSIMD, dstScalar)
					// Aliased dst == src.
					aSIMD, aScalar := planarOf(binsC), planarOf(binsC)
					s.SlideRotatedTab(aSIMD, aSIMD, diffs, tab)
					forceScalarDuring(func() { s.SlideRotatedTab(aScalar, aScalar, diffs, tab) })
					requirePlanarBitsEqual(t, ctx+"/aliased", aSIMD, aScalar)
				}
			}
		}
	}
}

func TestSlideTabForRejectsDuplicateBins(t *testing.T) {
	s := MustSlidingDFT(16)
	if _, err := s.SlideTabFor(3, 2, []int{1, 5, 1}); err == nil {
		t.Fatal("expected duplicate-bin error")
	}
}

func TestForceScalarToggle(t *testing.T) {
	avail := SIMDName()
	ForceScalar(true)
	if got := SIMDName(); got != "scalar" {
		t.Fatalf("forced scalar, SIMDName = %q", got)
	}
	ForceScalar(false)
	if got := SIMDName(); got != avail {
		t.Fatalf("restored dispatch, SIMDName = %q, want %q", got, avail)
	}
}
