package dsp

import (
	"fmt"
	"math"
	"sync"
)

// SlidingDFT advances a phase-corrected DFT window over a sample stream.
// CPRecycle's P FFT windows per OFDM symbol share all but a few (stride)
// samples, so only the first window needs a full transform; each further
// window comes from the previous one by a rotated-domain update. If bins
// holds R_δ·DFT(window at t), where R_δ[k] = e^{+i 2π k δ / N} is the
// Eq. 2 segment correction, then R_{δ−m}·DFT(window at t+m) is
//
//	bins'[k] = bins[k] + Σ_{j<m} (x[t+N+j] − x[t+j])·e^{+i 2π k (δ−j) / N},
//
// because the window advance and the ramp slope decrement cancel: m
// multiply-adds per bin instead of an O(N log N) transform. SlideRotatedTab
// runs that update at a fixed bin selection off a precomputed twiddle
// schedule (SlideTabFor); that is the paper's central compute saving.
//
// The update multiplies exclusively by unit-magnitude twiddles, so the
// numerical drift relative to a direct transform grows only with machine
// epsilon per slide (≈1e-15 relative per step; see the exactness tests).
// Callers performing very long slide chains can reseed with a full FFT
// periodically — the CPRecycle receivers slide at most a few dozen times
// per seed, far below any threshold of concern.
//
// A SlidingDFT is safe for concurrent use once created: SlideRotatedTab
// writes only to the caller's dst planes.
type SlidingDFT struct {
	n int
	// wP holds the twiddles e^{-i 2π r / n}, r in [0, n), as adjacent
	// (re, im) float pairs: one cache line per random index instead of
	// two gathers from split tables.
	wP []float64
	// tabs caches SlideTabFor schedules: tabKey -> *SlideTab. Hash
	// collisions are resolved by comparing the stored bin selection.
	tabs sync.Map
}

// NewSlidingDFT returns a sliding-DFT kernel for windows of length n.
// Unlike the radix-2 FFT, any positive n is supported.
func NewSlidingDFT(n int) (*SlidingDFT, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dsp: SlidingDFT size %d must be positive", n)
	}
	s := &SlidingDFT{n: n, wP: make([]float64, 2*n)}
	for r := 0; r < n; r++ {
		sin, cos := math.Sincos(2 * math.Pi * float64(r) / float64(n))
		s.wP[2*r] = cos
		s.wP[2*r+1] = -sin
	}
	return s, nil
}

// MustSlidingDFT is NewSlidingDFT but panics on error.
func MustSlidingDFT(n int) *SlidingDFT {
	s, err := NewSlidingDFT(n)
	if err != nil {
		panic(err)
	}
	return s
}

// slidingCache mirrors planCache: one immutable kernel per window size for
// the whole process, so per-frame demodulators never rebuild the full
// twiddle table.
var slidingCache sync.Map // int -> *SlidingDFT

// SlidingFor returns the process-wide shared sliding-DFT kernel for window
// length n, creating and caching it on first use.
func SlidingFor(n int) (*SlidingDFT, error) {
	if v, ok := slidingCache.Load(n); ok {
		return v.(*SlidingDFT), nil
	}
	s, err := NewSlidingDFT(n)
	if err != nil {
		return nil, err
	}
	v, _ := slidingCache.LoadOrStore(n, s)
	return v.(*SlidingDFT), nil
}
