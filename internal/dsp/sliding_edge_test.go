package dsp

import "testing"

// TestSlideRotatedBinsEdgeCases covers the selection-driven corner cases
// of SlideRotatedTab: an empty selection is a no-op, the full-bin
// selection matches the direct reference bit for bit (copying and in
// place), delta values at or beyond the window size reduce mod N
// (including negative deltas) to one shared schedule, and a diffs length
// other than the table's step panics.
func TestSlideRotatedBinsEdgeCases(t *testing.T) {
	const n = 64
	r := NewRand(37)
	x := randSignal(r, 3*n)
	s := MustSlidingDFT(n)
	diffs := diffsAt(x, 0, n, 3)
	before := FFT(x[:n])

	// Empty selection: no bin may change.
	for _, sel := range [][]int{nil, {}} {
		bins := planarOf(before)
		slideAt(t, s, bins, diffs, 7, sel)
		if d := planarDiff(bins, before); d != 0 {
			t.Fatalf("empty selection changed bins by %g", d)
		}
	}

	// Full-bin selection ≡ the direct reference, bit for bit.
	full := allBins(n)
	want := append([]complex128(nil), before...)
	slideRotatedBinsRef(s, want, diffs, 7, full)
	tab, err := s.SlideTabFor(7, len(diffs), full)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := planarOf(before), NewPlanar(n)
	s.SlideRotatedTab(dst, src, planarOf(diffs), tab)
	s.SlideRotatedTab(src, src, planarOf(diffs), tab)
	for k := range want {
		if dst.At(k) != want[k] || src.At(k) != want[k] {
			t.Fatalf("full selection bin %d: %v / %v in place, want %v", k, dst.At(k), src.At(k), want[k])
		}
	}

	// Delta wraps: δ, δ±N and δ+2N must share one schedule and produce
	// identical updates, and δ = N must behave as δ = 0.
	for _, base := range []int{0, 1, n - 1} {
		ref := planarOf(before)
		slideAt(t, s, ref, diffs, base, full)
		refTab, err := s.SlideTabFor(base, len(diffs), full)
		if err != nil {
			t.Fatal(err)
		}
		for _, delta := range []int{base + n, base + 2*n, base - n} {
			if tab, err := s.SlideTabFor(delta, len(diffs), full); err != nil || tab != refTab {
				t.Fatalf("delta %d did not share the δ=%d schedule (err %v)", delta, base, err)
			}
			got := planarOf(before)
			slideAt(t, s, got, diffs, delta, full)
			for k := 0; k < n; k++ {
				if got.At(k) != ref.At(k) {
					t.Fatalf("delta %d bin %d: %v, want %v (δ=%d)", delta, k, got.At(k), ref.At(k), base)
				}
			}
		}
	}

	// The diffs must hold exactly the table's step.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("diffs/step mismatch did not panic")
			}
		}()
		bins := planarOf(before)
		s.SlideRotatedTab(bins, bins, NewPlanar(len(diffs)+1), tab)
	}()
}

func TestCyclicShiftInto(t *testing.T) {
	r := NewRand(41)
	x := randSignal(r, 17)
	for _, k := range []int{0, 1, 5, 16, 17, 18, -1, -17, -40, 200} {
		want := CyclicShift(x, k)
		got := make([]complex128, len(x))
		CyclicShiftInto(got, x, k)
		if d := MaxAbsDiff(got, want); d != 0 {
			t.Fatalf("k=%d: CyclicShiftInto differs from CyclicShift by %g", k, d)
		}
		// Reference semantics: out[i] = x[(i+k) mod n].
		for i := range got {
			j := ((i+k)%len(x) + len(x)) % len(x)
			if got[i] != x[j] {
				t.Fatalf("k=%d: out[%d] = %v, want x[%d] = %v", k, i, got[i], j, x[j])
			}
		}
	}
	// Empty input and length mismatch.
	CyclicShiftInto(nil, nil, 3)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("length mismatch did not panic")
			}
		}()
		CyclicShiftInto(make([]complex128, 3), x, 1)
	}()
}
