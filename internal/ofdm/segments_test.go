package ofdm

import (
	"testing"

	"repro/internal/dsp"
)

func testStream(seed int64, n int) []complex128 {
	r := dsp.NewRand(seed)
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return x
}

// segmentRef is the retired one-FFT-per-window segment demodulation, kept
// in the tests as the independent reference for the batch sliding-DFT
// path: a full FFT of the window starting cpOffset samples into the CP
// (1/N scaled) followed by the Eq. 2 phase-ramp correction. The ramp
// comes from the same cached tables the batch path uses, so the reference
// is bit-identical to the deleted Demodulator.Segment.
func segmentRef(d *Demodulator, rx []complex128, symStart, cpOffset int) ([]complex128, error) {
	out, err := d.WindowAt(rx, symStart+cpOffset)
	if err != nil {
		return nil, err
	}
	CorrectSegmentPhase(out, d.Grid().CP-cpOffset)
	return out, nil
}

// allBins returns the full selection of an n-bin grid.
func allBins(n int) []int {
	sel := make([]int, n)
	for k := range sel {
		sel[k] = k
	}
	return sel
}

// interleaved returns a planar window as a complex vector.
func interleaved(w dsp.Planar) []complex128 {
	out := make([]complex128, w.Len())
	dsp.Interleave(out, w)
	return out
}

// TestSegmentsMatchesRepeatedSegment pins the batch sliding-DFT path, at
// the full bin selection, to the one-FFT-per-window reference across
// grids, strides and symbol positions. The first window is bit-identical
// (same seed FFT); the slid windows must agree to sliding-DFT drift
// tolerance.
func TestSegmentsMatchesRepeatedSegment(t *testing.T) {
	for _, tc := range []struct {
		name   string
		g      Grid
		stride int
	}{
		{"native-stride1", Native80211Grid(), 1},
		{"native-stride3", Native80211Grid(), 3},
		{"wide4-stride4", WideGrid(64, 16, 4, 64), 4},
		{"wide4-stride2", WideGrid(64, 16, 4, 64), 2},
		{"wide2-stride5", WideGrid(64, 16, 2, 32), 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := MustDemodulator(tc.g)
			rx := testStream(99, 4*tc.g.SymLen())
			offs, err := SegmentPlan(tc.g.CP, tc.stride, 16, 0)
			if err != nil {
				t.Fatal(err)
			}
			all := allBins(tc.g.NFFT)
			var dst []dsp.Planar
			for _, symStart := range []int{0, tc.g.SymLen(), 2 * tc.g.SymLen()} {
				dst, err = d.Segments(rx, symStart, offs, all, dst)
				if err != nil {
					t.Fatal(err)
				}
				for i, off := range offs {
					want, err := segmentRef(d, rx, symStart, off)
					if err != nil {
						t.Fatal(err)
					}
					diff := dsp.MaxAbsDiff(interleaved(dst[i]), want)
					if i == 0 && diff != 0 {
						t.Fatalf("offset %d (seed window): diff %g, want bit-identical", off, diff)
					}
					if diff > 1e-12 {
						t.Fatalf("offset %d: batch window differs from direct FFT by %g", off, diff)
					}
				}
			}
		})
	}
}

func TestSegmentsValidation(t *testing.T) {
	g := Native80211Grid()
	d := MustDemodulator(g)
	rx := testStream(1, 3*g.SymLen())
	all := allBins(g.NFFT)
	for _, tc := range []struct {
		name    string
		offsets []int
		sel     []int
		start   int
	}{
		{"empty offsets", nil, all, 0},
		{"non-increasing offsets", []int{4, 4}, all, 0},
		{"negative offset", []int{-1, 4}, all, 0},
		{"offset beyond CP", []int{4, g.CP + 1}, all, 0},
		{"window past the stream end", []int{0, g.CP}, all, len(rx) - g.NFFT},
		{"empty selection with a slide", []int{0, g.CP}, nil, 0},
		{"out-of-range bin", []int{0, g.CP}, []int{3, g.NFFT}, 0},
		{"duplicate bin", []int{0, g.CP}, []int{3, 5, 3}, 0},
	} {
		if _, err := d.Segments(rx, tc.start, tc.offsets, tc.sel, nil); err == nil {
			t.Fatalf("%s accepted", tc.name)
		}
	}
	// One offset needs no slide, so no selection either.
	if _, err := d.Segments(rx, 0, []int{g.CP}, nil, nil); err != nil {
		t.Fatalf("single offset without a selection: %v", err)
	}
}

func TestWindowIntoMatchesWindowAt(t *testing.T) {
	g := WideGrid(64, 16, 2, 0)
	d := MustDemodulator(g)
	rx := testStream(5, 2*g.SymLen())
	want, err := d.WindowAt(rx, 17)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]complex128, g.NFFT)
	if err := d.WindowInto(got, rx, 17); err != nil {
		t.Fatal(err)
	}
	if dsp.MaxAbsDiff(got, want) != 0 {
		t.Fatal("WindowInto differs from WindowAt")
	}
	if err := d.WindowInto(make([]complex128, 3), rx, 0); err == nil {
		t.Fatal("short dst accepted")
	}
}

// benchGridAndPlan is the Fig. 8 receiver numerology: 4× composite band,
// 16 segments at native-sample stride.
func benchGridAndPlan(b *testing.B) (Grid, []int, []complex128) {
	b.Helper()
	g := WideGrid(64, 16, 4, 64)
	offs, err := SegmentPlan(g.CP, 4, 16, 8)
	if err != nil {
		b.Fatal(err)
	}
	return g, offs, testStream(2, 4*g.SymLen())
}

// BenchmarkSegmentRepeatedFFT is the pre-batch hot path: one independent
// FFT (plus a fresh allocation and a phase-ramp pass) per segment window.
func BenchmarkSegmentRepeatedFFT(b *testing.B) {
	g, offs, rx := benchGridAndPlan(b)
	d := MustDemodulator(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, off := range offs {
			if _, err := segmentRef(d, rx, g.SymLen(), off); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSegmentsBatch is the sliding-DFT batch path for the same set of
// windows at the full bin selection, reusing the destination buffers.
func BenchmarkSegmentsBatch(b *testing.B) {
	g, offs, rx := benchGridAndPlan(b)
	d := MustDemodulator(g)
	all := allBins(g.NFFT)
	var dst []dsp.Planar
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, err = d.Segments(rx, g.SymLen(), offs, all, dst)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// TestSegmentsOnMatchesSegments pins a sparse (used-subcarrier) selection
// against the full selection at the selected bins (identical arithmetic →
// identical values), checks that the seed window is complete and that
// slid windows leave unselected bins untouched.
func TestSegmentsOnMatchesSegments(t *testing.T) {
	g := WideGrid(64, 16, 4, 64)
	d1 := MustDemodulator(g)
	d2 := MustDemodulator(g)
	rx := testStream(7, 4*g.SymLen())
	offs, err := SegmentPlan(g.CP, 4, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	var sel []int
	for sc := -26; sc <= 26; sc++ {
		if sc != 0 {
			sel = append(sel, g.Bin(sc))
		}
	}
	full, err := d1.Segments(rx, g.SymLen(), offs, allBins(g.NFFT), nil)
	if err != nil {
		t.Fatal(err)
	}
	sparse := make([]dsp.Planar, len(offs))
	for i := range sparse {
		sparse[i] = dsp.NewPlanar(g.NFFT)
		for k := range sparse[i].Re {
			sparse[i].Re[k] = 999 // sentinel: unselected bins must stay untouched
		}
	}
	if sparse, err = d2.Segments(rx, g.SymLen(), offs, sel, sparse); err != nil {
		t.Fatal(err)
	}
	inSel := make(map[int]bool, len(sel))
	for _, k := range sel {
		inSel[k] = true
	}
	for i := range offs {
		for k := 0; k < g.NFFT; k++ {
			switch {
			case i == 0 || inSel[k]:
				if sparse[i].At(k) != full[i].At(k) {
					t.Fatalf("window %d bin %d: sparse %v != full %v", i, k, sparse[i].At(k), full[i].At(k))
				}
			case sparse[i].Re[k] != 999:
				t.Fatalf("window %d: unselected bin %d was written", i, k)
			}
		}
	}
}
