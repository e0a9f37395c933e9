package wifi

import (
	"fmt"

	"repro/internal/coding"
)

// The SIGNAL field (§18.3.4) is a single BPSK rate-1/2 OFDM symbol carrying
// 24 bits: RATE(4) | reserved(1) | LENGTH(12, LSB first) | even parity(1) |
// tail(6 zeros). It is convolutionally encoded and interleaved but never
// scrambled or punctured.

// MaxPSDULen is the largest LENGTH value the 12-bit field can carry.
const MaxPSDULen = 4095

// EncodeSignalBits builds the 24 uncoded SIGNAL bits for an MCS and PSDU
// length in octets.
func EncodeSignalBits(m MCS, psduLen int) ([]byte, error) {
	if psduLen < 1 || psduLen > MaxPSDULen {
		return nil, fmt.Errorf("wifi: PSDU length %d outside [1,%d]", psduLen, MaxPSDULen)
	}
	bits := make([]byte, 24)
	putSignalBits(bits, m, psduLen)
	return bits, nil
}

// putSignalBits writes the 24 SIGNAL bits for a validated PSDU length into
// bits (length 24), overwriting every position.
func putSignalBits(bits []byte, m MCS, psduLen int) {
	clear(bits)
	for i := 0; i < 4; i++ { // RATE, R1 transmitted first = MSB of RateBits
		bits[i] = (m.RateBits >> (3 - i)) & 1
	}
	// bits[4] reserved = 0
	for i := 0; i < 12; i++ { // LENGTH, LSB first
		bits[5+i] = byte(psduLen>>i) & 1
	}
	var parity byte
	for _, b := range bits[:17] {
		parity ^= b
	}
	bits[17] = parity
	// bits[18:24] tail = 0
}

// DecodeSignalBits parses 24 decoded SIGNAL bits, validating parity and the
// RATE field, and returns the MCS and PSDU length.
func DecodeSignalBits(bits []byte) (MCS, int, error) {
	if len(bits) != 24 {
		return MCS{}, 0, fmt.Errorf("wifi: SIGNAL needs 24 bits, got %d", len(bits))
	}
	var parity byte
	for _, b := range bits[:18] {
		parity ^= b & 1
	}
	if parity != 0 {
		return MCS{}, 0, fmt.Errorf("wifi: SIGNAL parity check failed")
	}
	var rate byte
	for i := 0; i < 4; i++ {
		rate = rate<<1 | bits[i]&1
	}
	m, err := MCSByRateBits(rate)
	if err != nil {
		return MCS{}, 0, err
	}
	length := 0
	for i := 0; i < 12; i++ {
		length |= int(bits[5+i]&1) << i
	}
	if length == 0 {
		return MCS{}, 0, fmt.Errorf("wifi: SIGNAL length 0")
	}
	return m, length, nil
}

// signalInterleaver is the BPSK interleaver used by the SIGNAL symbol.
var signalInterleaver = coding.MustInterleaver(48, 1)

// EncodeSignalSymbolBits convolutionally encodes and interleaves the 24
// SIGNAL bits into the 48 coded bits of the SIGNAL OFDM symbol.
func EncodeSignalSymbolBits(m MCS, psduLen int) ([]byte, error) {
	if psduLen < 1 || psduLen > MaxPSDULen {
		return nil, fmt.Errorf("wifi: PSDU length %d outside [1,%d]", psduLen, MaxPSDULen)
	}
	out := make([]byte, 48)
	encodeSignalSymbolInto(out, nil, m, psduLen)
	return out, nil
}

// encodeSignalSymbolInto is EncodeSignalSymbolBits for a validated PSDU
// length, writing the 48 coded bits into dst. coded is scratch for the
// rate-1/2 encoding; the grown scratch is returned for reuse.
func encodeSignalSymbolInto(dst, coded []byte, m MCS, psduLen int) []byte {
	var bits [24]byte
	putSignalBits(bits[:], m, psduLen)
	coded = coding.AppendConvEncode(coded[:0], bits[:])
	signalInterleaver.InterleaveInto(dst, coded)
	return coded
}

// DecodeSignalSymbolLLRs deinterleaves and Viterbi-decodes the 48 coded
// SIGNAL LLRs, then parses the field.
func DecodeSignalSymbolLLRs(llrs []float64, v *coding.Viterbi) (MCS, int, error) {
	if len(llrs) != 48 {
		return MCS{}, 0, fmt.Errorf("wifi: SIGNAL symbol needs 48 llrs, got %d", len(llrs))
	}
	de := signalInterleaver.DeinterleaveLLR(llrs)
	bits, err := v.Decode(de)
	if err != nil {
		return MCS{}, 0, err
	}
	return DecodeSignalBits(bits)
}
