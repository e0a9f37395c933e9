// Package coding implements the IEEE 802.11a/g bit-level processing chain:
// scrambling, rate-1/2 K=7 convolutional coding with the standard puncturing
// patterns, a hard/soft Viterbi decoder, the two-permutation block
// interleaver, and the CRC-32 frame check sequence.
//
// The Viterbi decoder has two forward passes over one survivor format:
// one uint64 per trellis step, bit ns set when the odd predecessor
// 2·(ns&31)+1 of state ns won (viterbi.go). Soft LLRs run on float64
// path metrics; hard bits run on integer metrics, which reproduce the
// float recursion exactly because hard LLRs are ±1 with 0 erasures
// (viterbi_hard.go gives the argument), with an AVX2 kernel behind
// internal/dsp's CPU detection and ForceScalar switch. At 8 bytes per
// step the survivors of the longest PSDU take ≈262 KB, so every stream
// is decoded with one flat survivor array and no traceback window.
//
// Bits are represented as bytes holding 0 or 1. Octets serialise LSB-first,
// as the standard requires.
package coding

import "fmt"

// BytesToBits expands octets to bits, least-significant bit of each octet
// first (802.11 §18.3.5.2 bit ordering).
func BytesToBits(data []byte) []byte {
	return AppendBits(make([]byte, 0, len(data)*8), data)
}

// AppendBits appends BytesToBits(data) to dst and returns the extended
// slice.
func AppendBits(dst, data []byte) []byte {
	for _, b := range data {
		for i := 0; i < 8; i++ {
			dst = append(dst, (b>>i)&1)
		}
	}
	return dst
}

// BitsToBytes packs bits (LSB-first per octet) back into octets. The bit
// count must be a multiple of 8.
func BitsToBytes(bits []byte) []byte {
	if len(bits)%8 != 0 {
		panic(fmt.Sprintf("coding: BitsToBytes on %d bits (not a multiple of 8)", len(bits)))
	}
	out := make([]byte, len(bits)/8)
	for i, b := range bits {
		if b&1 != 0 {
			out[i/8] |= 1 << (i % 8)
		}
	}
	return out
}

// HammingDistance returns the number of positions at which a and b differ.
// The slices must be equally long.
func HammingDistance(a, b []byte) int {
	if len(a) != len(b) {
		panic("coding: HammingDistance length mismatch")
	}
	d := 0
	for i := range a {
		if a[i]&1 != b[i]&1 {
			d++
		}
	}
	return d
}

// HardToLLR converts hard bits to ±1 log-likelihood ratios (positive means
// bit 0), the representation the Viterbi decoder consumes. Erasures are not
// representable here; use Depuncture for punctured streams.
func HardToLLR(bits []byte) []float64 {
	out := make([]float64, len(bits))
	for i, b := range bits {
		if b&1 == 0 {
			out[i] = 1
		} else {
			out[i] = -1
		}
	}
	return out
}
