package coding

import "fmt"

// Interleaver is the 802.11 two-permutation block interleaver (§18.3.5.7).
// It operates on one OFDM symbol's worth of coded bits (Ncbps) and ensures
// adjacent coded bits map onto nonadjacent subcarriers and alternate between
// more and less significant constellation bits.
type Interleaver struct {
	ncbps int
	perm  []int // perm[k] = position after interleaving of input bit k
	inv   []int
}

// NewInterleaver builds the interleaver for ncbps coded bits per symbol and
// nbpsc coded bits per subcarrier (1, 2, 4 or 6 for 802.11a/g).
func NewInterleaver(ncbps, nbpsc int) (*Interleaver, error) {
	if ncbps <= 0 || ncbps%16 != 0 {
		return nil, fmt.Errorf("coding: Ncbps %d must be a positive multiple of 16", ncbps)
	}
	s := nbpsc / 2
	if s < 1 {
		s = 1
	}
	il := &Interleaver{
		ncbps: ncbps,
		perm:  make([]int, ncbps),
		inv:   make([]int, ncbps),
	}
	for k := 0; k < ncbps; k++ {
		// first permutation
		i := (ncbps/16)*(k%16) + k/16
		// second permutation
		j := s*(i/s) + (i+ncbps-16*i/ncbps)%s
		il.perm[k] = j
		il.inv[j] = k
	}
	return il, nil
}

// MustInterleaver is NewInterleaver but panics on error.
func MustInterleaver(ncbps, nbpsc int) *Interleaver {
	il, err := NewInterleaver(ncbps, nbpsc)
	if err != nil {
		panic(err)
	}
	return il
}

// Ncbps returns the block size in bits.
func (il *Interleaver) Ncbps() int { return il.ncbps }

// Interleave permutes one block of exactly Ncbps bits into a fresh slice.
func (il *Interleaver) Interleave(bits []byte) []byte {
	if len(bits) != il.ncbps {
		panic(fmt.Sprintf("coding: interleave block size %d, want %d", len(bits), il.ncbps))
	}
	out := make([]byte, il.ncbps)
	for k, b := range bits {
		out[il.perm[k]] = b
	}
	return out
}

// InterleaveInto is Interleave into a caller-provided block of Ncbps
// bytes, avoiding the allocation.
func (il *Interleaver) InterleaveInto(dst, bits []byte) {
	if len(bits) != il.ncbps || len(dst) != il.ncbps {
		panic(fmt.Sprintf("coding: interleave block sizes %d/%d, want %d", len(dst), len(bits), il.ncbps))
	}
	for k, b := range bits {
		dst[il.perm[k]] = b
	}
}

// Deinterleave inverts Interleave for one block of bits.
func (il *Interleaver) Deinterleave(bits []byte) []byte {
	if len(bits) != il.ncbps {
		panic(fmt.Sprintf("coding: deinterleave block size %d, want %d", len(bits), il.ncbps))
	}
	out := make([]byte, il.ncbps)
	for j, b := range bits {
		out[il.inv[j]] = b
	}
	return out
}

// DeinterleaveInto is Deinterleave into a caller-provided block of Ncbps
// bytes, avoiding the allocation.
func (il *Interleaver) DeinterleaveInto(dst, bits []byte) {
	if len(bits) != il.ncbps || len(dst) != il.ncbps {
		panic(fmt.Sprintf("coding: deinterleave block sizes %d/%d, want %d", len(dst), len(bits), il.ncbps))
	}
	for j, b := range bits {
		dst[il.inv[j]] = b
	}
}

// DeinterleaveLLR inverts the permutation on a block of per-bit LLRs.
func (il *Interleaver) DeinterleaveLLR(llrs []float64) []float64 {
	out := make([]float64, il.ncbps)
	il.DeinterleaveLLRInto(out, llrs)
	return out
}

// DeinterleaveLLRInto is DeinterleaveLLR into a caller-provided block of
// Ncbps weights, avoiding the allocation (the soft decode writes each
// symbol's block directly into one packet-wide LLR stream).
func (il *Interleaver) DeinterleaveLLRInto(dst, llrs []float64) {
	if len(llrs) != il.ncbps || len(dst) != il.ncbps {
		panic(fmt.Sprintf("coding: deinterleave block sizes %d/%d, want %d", len(dst), len(llrs), il.ncbps))
	}
	for j, l := range llrs {
		dst[il.inv[j]] = l
	}
}
