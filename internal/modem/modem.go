// Package modem implements the digital constellations used by 802.11a/g
// OFDM: BPSK, QPSK, 16-QAM, 64-QAM and (for the oversampling extension)
// 256-QAM, all Gray-coded and normalised to unit average power exactly as
// specified in IEEE 802.11-2012 §18.3.5.8.
//
// A Constellation is the "finite set of alphabet from the transmitter's
// codebook" (paper §3.1): its points are the lattice L = {l1 … lk} over
// which CPRecycle's fixed-sphere maximum-likelihood detector searches.
package modem

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"
)

// Scheme identifies a modulation scheme.
type Scheme int

// Supported modulation schemes.
const (
	BPSK Scheme = iota
	QPSK
	QAM16
	QAM64
	QAM256
)

// String returns the conventional name of the scheme.
func (s Scheme) String() string {
	switch s {
	case BPSK:
		return "BPSK"
	case QPSK:
		return "QPSK"
	case QAM16:
		return "16-QAM"
	case QAM64:
		return "64-QAM"
	case QAM256:
		return "256-QAM"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// BitsPerSymbol returns the number of bits carried per constellation point.
func (s Scheme) BitsPerSymbol() int {
	switch s {
	case BPSK:
		return 1
	case QPSK:
		return 2
	case QAM16:
		return 4
	case QAM64:
		return 6
	case QAM256:
		return 8
	default:
		panic(fmt.Sprintf("modem: unknown scheme %d", int(s)))
	}
}

// Constellation holds the lattice points of a scheme together with the
// Gray bit labelling. The zero value is not usable; construct with New.
// A Constellation is immutable and safe for concurrent use.
type Constellation struct {
	scheme  Scheme
	bits    int
	points  []complex128 // indexed by the integer formed from the bit label
	norm    float64      // K_MOD scaling applied to the raw lattice
	minDist float64      // minimum distance between two lattice points
	// neighbours[idx] lists the points one lattice step from point idx
	// along either axis (at most four).
	neighbours [][]int
}

// shared holds the one Constellation of each scheme, built on first use.
var shared [QAM256 + 1]func() *Constellation

func init() {
	for s := range shared {
		shared[s] = sync.OnceValue(func() *Constellation { return build(Scheme(s)) })
	}
}

// New returns the constellation for the given scheme. Every call for a
// scheme returns the same immutable value, built on the first call, so
// New is free on hot paths.
func New(s Scheme) *Constellation {
	if s < 0 || int(s) >= len(shared) {
		panic(fmt.Sprintf("modem: unknown scheme %d", int(s)))
	}
	return shared[s]()
}

// build constructs the constellation of scheme s, a scheme New accepts.
func build(s Scheme) *Constellation {
	c := &Constellation{scheme: s, bits: s.BitsPerSymbol()}
	switch s {
	case BPSK:
		c.norm = 1
		c.points = []complex128{complex(-1, 0), complex(1, 0)}
	case QPSK:
		c.norm = 1 / math.Sqrt2
		c.points = make([]complex128, 4)
		for idx := range c.points {
			i := grayAxis((idx>>1)&1, 1)
			q := grayAxis(idx&1, 1)
			c.points[idx] = complex(i*c.norm, q*c.norm)
		}
	case QAM16:
		c.norm = 1 / math.Sqrt(10)
		c.points = make([]complex128, 16)
		for idx := range c.points {
			i := grayAxis((idx>>2)&3, 2)
			q := grayAxis(idx&3, 2)
			c.points[idx] = complex(i*c.norm, q*c.norm)
		}
	case QAM64:
		c.norm = 1 / math.Sqrt(42)
		c.points = make([]complex128, 64)
		for idx := range c.points {
			i := grayAxis((idx>>3)&7, 3)
			q := grayAxis(idx&7, 3)
			c.points[idx] = complex(i*c.norm, q*c.norm)
		}
	case QAM256:
		c.norm = 1 / math.Sqrt(170)
		c.points = make([]complex128, 256)
		for idx := range c.points {
			i := grayAxis((idx>>4)&15, 4)
			q := grayAxis(idx&15, 4)
			c.points[idx] = complex(i*c.norm, q*c.norm)
		}
	}
	// Each point is norm × (odd integer level) per axis, so dividing by
	// norm and rounding recovers the levels exactly; edge neighbours
	// differ by 2 in one level.
	c.neighbours = make([][]int, len(c.points))
	for i, p := range c.points {
		for j, q := range c.points {
			di := math.Abs(math.Round(real(q)/c.norm) - math.Round(real(p)/c.norm))
			dq := math.Abs(math.Round(imag(q)/c.norm) - math.Round(imag(p)/c.norm))
			if di+dq == 2 && di*dq == 0 {
				c.neighbours[i] = append(c.neighbours[i], j)
			}
		}
	}
	c.minDist = math.Inf(1)
	for i := range c.points {
		for j := i + 1; j < len(c.points); j++ {
			if d := cmplx.Abs(c.points[i] - c.points[j]); d < c.minDist {
				c.minDist = d
			}
		}
	}
	return c
}

// grayAxis maps nb bits (as an integer v, first transmitted bit most
// significant) to the 802.11 Gray-coded PAM level on one axis:
// 1 bit: 0→-1 1→+1; 2 bits: 00→-3 01→-1 11→+1 10→+3; 3 and 4 bits extend
// the same reflected-Gray pattern.
func grayAxis(v, nb int) float64 {
	// Convert Gray label to its rank along the axis, then to a level.
	g := v
	b := g
	for shift := 1; shift < nb; shift++ {
		b ^= g >> shift
	}
	// b is now the binary rank 0..2^nb-1 from the most negative level.
	levels := 1 << nb
	return float64(2*b - levels + 1)
}

// Scheme returns the modulation scheme of the constellation.
func (c *Constellation) Scheme() Scheme { return c.scheme }

// BitsPerSymbol returns the number of bits per point.
func (c *Constellation) BitsPerSymbol() int { return c.bits }

// Size returns the number of lattice points.
func (c *Constellation) Size() int { return len(c.points) }

// Points returns the lattice. The returned slice must not be modified.
func (c *Constellation) Points() []complex128 { return c.points }

// Point returns the lattice point for a bit-label index in [0, Size).
func (c *Constellation) Point(idx int) complex128 { return c.points[idx] }

// Neighbours returns the lattice indices of the points one lattice step
// from point idx along either axis — its edge neighbours, at most four
// (one for BPSK), in lattice index order. The returned slice must not be
// modified.
func (c *Constellation) Neighbours(idx int) []int { return c.neighbours[idx] }

// Map converts BitsPerSymbol bits (0/1 bytes, first bit = most significant
// in the label, matching 802.11 bit ordering) to a lattice point.
func (c *Constellation) Map(bits []byte) complex128 {
	if len(bits) != c.bits {
		panic(fmt.Sprintf("modem: Map needs %d bits, got %d", c.bits, len(bits)))
	}
	return c.points[c.Index(bits)]
}

// Index converts a bit group to its integer lattice label.
func (c *Constellation) Index(bits []byte) int {
	idx := 0
	for _, b := range bits {
		idx = idx<<1 | int(b&1)
	}
	return idx
}

// BitsOf writes the bit label of lattice index idx into dst (length
// BitsPerSymbol) and returns dst.
func (c *Constellation) BitsOf(idx int, dst []byte) []byte {
	if dst == nil {
		dst = make([]byte, c.bits)
	}
	for i := 0; i < c.bits; i++ {
		dst[i] = byte(idx>>(c.bits-1-i)) & 1
	}
	return dst
}

// MapAll maps a bit stream (length must be a multiple of BitsPerSymbol)
// to a fresh slice of lattice points.
func (c *Constellation) MapAll(bits []byte) []complex128 {
	if len(bits)%c.bits != 0 {
		panic(fmt.Sprintf("modem: MapAll bit count %d not a multiple of %d", len(bits), c.bits))
	}
	out := make([]complex128, len(bits)/c.bits)
	for i := range out {
		out[i] = c.Map(bits[i*c.bits : (i+1)*c.bits])
	}
	return out
}

// Nearest returns the lattice index of the point closest (in Euclidean
// distance) to the received sample r.
func (c *Constellation) Nearest(r complex128) int {
	best, bestD := 0, math.Inf(1)
	for i, p := range c.points {
		d := sqAbs(r - p)
		if d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// HardDemap appends the bit label of the nearest lattice point for every
// received sample and returns the extended slice.
func (c *Constellation) HardDemap(rx []complex128, dst []byte) []byte {
	buf := make([]byte, c.bits)
	for _, r := range rx {
		c.BitsOf(c.Nearest(r), buf)
		dst = append(dst, buf...)
	}
	return dst
}

// LLR appends max-log-MAP log-likelihood ratios (positive = bit 0 more
// likely) for every bit of every received sample, given noise variance n0.
// Used by the soft Viterbi extension.
func (c *Constellation) LLR(rx []complex128, n0 float64, dst []float64) []float64 {
	if n0 <= 0 {
		n0 = 1e-9
	}
	for _, r := range rx {
		for b := 0; b < c.bits; b++ {
			d0, d1 := math.Inf(1), math.Inf(1)
			for idx, p := range c.points {
				d := sqAbs(r - p)
				if idx>>(c.bits-1-b)&1 == 0 {
					if d < d0 {
						d0 = d
					}
				} else if d < d1 {
					d1 = d
				}
			}
			dst = append(dst, (d1-d0)/n0)
		}
	}
	return dst
}

// WithinRadius appends the lattice indices whose points lie within Euclidean
// distance radius of centre, in increasing-distance order (ties in lattice
// index order). This implements the fixed-sphere candidate selection of
// the paper's §4.2. The candidates are insertion-sorted in place in dst,
// so a dst with spare capacity makes the call allocation-free.
func (c *Constellation) WithinRadius(centre complex128, radius float64, dst []int) []int {
	r2 := radius * radius
	base := len(dst)
	for i, p := range c.points {
		d := sqAbs(p - centre)
		if !(d <= r2) {
			continue
		}
		// Shift farther candidates right; equal distances stay ahead of
		// i, which keeps ties in lattice order (candidate sets are tiny).
		dst = append(dst, i)
		j := len(dst) - 1
		for ; j > base && sqAbs(c.points[dst[j-1]]-centre) > d; j-- {
			dst[j] = dst[j-1]
		}
		dst[j] = i
	}
	return dst
}

// MinDistance returns the minimum Euclidean distance between any two
// distinct lattice points (useful for choosing sphere radii), computed
// once when the constellation is built.
func (c *Constellation) MinDistance() float64 { return c.minDist }

// AveragePower returns the mean squared magnitude over the lattice; 1.0 for
// all correctly normalised schemes.
func (c *Constellation) AveragePower() float64 {
	var s float64
	for _, p := range c.points {
		s += sqAbs(p)
	}
	return s / float64(len(c.points))
}

func sqAbs(v complex128) float64 {
	return real(v)*real(v) + imag(v)*imag(v)
}
