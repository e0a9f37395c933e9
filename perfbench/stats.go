package main

import (
	"math"
	"slices"
)

// minAbove is how many samples must lie above a reported percentile: a
// tail figure resting on fewer moves with single outliers.
const minAbove = 10

// rank is the 1-based nearest rank of the p-quantile (0 < p ≤ 1) among n
// sorted samples. The epsilon keeps p·n that is integral in exact
// arithmetic (0.9·100) from rounding up a rank.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// percentile returns the nearest-rank p-quantile of xs and the number of
// samples beyond its rank. xs need not be sorted.
func percentile(xs []float64, p float64) (value float64, above int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	r := rank(len(s), p)
	return s[r-1], len(s) - r
}

// minSamplesFor is the smallest sample count whose p-quantile still has
// minAbove samples beyond it.
func minSamplesFor(p float64) int {
	n := minAbove + 1
	for n-rank(n, p) < minAbove {
		n++
	}
	return n
}

// median returns the middle of xs (the mean of the two middle values for
// an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quietFactor is how much slower than the run's 1st-percentile probe a
// probe may run and still count as quiet: the probe's time on a quiet
// core varies by less than this, and about doubles while the host runs
// other work on the same physical core. The 1st percentile stays at the
// quiet speed in a run that is quiet only a few percent of the time.
const quietFactor = 1.3

// quiet returns the samples of xs whose probe time (probes[i], the
// slower of the probes either side of sample i) is within quietFactor of
// the 1st-percentile probe, and the limit it applied. It never returns
// fewer than minN samples: when fewer are quiet, it raises the limit to
// take the minN with the fastest probes.
func quiet(xs, probes []float64, minN int) (out []float64, limit float64) {
	s := slices.Clone(probes)
	slices.Sort(s)
	p1, _ := percentile(s, 0.01)
	limit = quietFactor * p1
	if n := min(minN, len(s)); n > 0 {
		limit = max(limit, s[n-1])
	}
	for i, x := range xs {
		if probes[i] <= limit {
			out = append(out, x)
		}
	}
	return out, limit
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
