package main

import (
	"slices"
	"testing"
)

func TestPercentileSampleCounts(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	for _, c := range []struct {
		n         int
		p         float64
		value     float64
		above     int
		qualifies bool // at least minAbove samples beyond the percentile
	}{
		{n: 100, p: 0.9, value: 90, above: 10, qualifies: true},
		{n: 99, p: 0.9, value: 90, above: 9},
		{n: 1000, p: 0.99, value: 990, above: 10, qualifies: true},
		{n: 999, p: 0.99, value: 990, above: 9},
		{n: 20, p: 0.5, value: 10, above: 10, qualifies: true},
		{n: 1, p: 0.9, value: 1, above: 0},
	} {
		v, above := percentile(seq(c.n), c.p)
		if v != c.value || above != c.above {
			t.Errorf("percentile(n=%d, p=%v) = %v with %d above, want %v with %d", c.n, c.p, v, above, c.value, c.above)
		}
		if got := above >= minAbove; got != c.qualifies {
			t.Errorf("n=%d p=%v: qualifies %v, want %v", c.n, c.p, got, c.qualifies)
		}
	}
	for p, want := range map[float64]int{0.5: 20, 0.9: 100, 0.99: 1000} {
		if got := minSamplesFor(p); got != want {
			t.Errorf("minSamplesFor(%v) = %d, want %d", p, got, want)
		}
	}
}

func TestQuiet(t *testing.T) {
	// Twenty packets: the even ones timed beside a quiet probe (0.2 ms),
	// the odd ones beside a probe slowed about twofold.
	var xs, probes []float64
	for i := range 20 {
		xs = append(xs, float64(i))
		p := 0.2
		if i%2 == 1 {
			p = 0.4 + float64(i)/1000
		}
		probes = append(probes, p)
	}
	got, limit := quiet(xs, probes, 10)
	if len(got) != 10 || limit != quietFactor*0.2 {
		t.Fatalf("quiet kept %d samples below %v, want 10 below %v", len(got), limit, quietFactor*0.2)
	}
	for _, x := range got {
		if int(x)%2 != 0 {
			t.Errorf("quiet kept sample %v, timed beside a slowed probe", x)
		}
	}
	// With 12 wanted, the two slowed samples with the fastest probes join.
	got, limit = quiet(xs, probes, 12)
	if want := []float64{0, 1, 2, 3, 4, 6, 8, 10, 12, 14, 16, 18}; !slices.Equal(got, want) || limit != probes[3] {
		t.Errorf("quiet(minN 12) = %v below %v, want %v below %v", got, limit, want, probes[3])
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}
