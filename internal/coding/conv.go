package coding

import "fmt"

// The 802.11 convolutional code: rate 1/2, constraint length 7, generator
// polynomials g0 = 133₈ (output A) and g1 = 171₈ (output B), §18.3.5.6.
const (
	constraintLen = 7
	numStates     = 1 << (constraintLen - 1) // 64
	polyA         = 0o133
	polyB         = 0o171
)

// parity returns the parity (XOR of all bits) of v.
func parity(v uint32) byte {
	v ^= v >> 16
	v ^= v >> 8
	v ^= v >> 4
	v ^= v >> 2
	v ^= v >> 1
	return byte(v & 1)
}

// ConvEncode encodes bits with the 802.11 rate-1/2 code, starting from the
// all-zero state. Output is A0 B0 A1 B1 …, twice the input length. Callers
// terminate the trellis by appending six zero tail bits to the input.
func ConvEncode(bits []byte) []byte {
	return AppendConvEncode(make([]byte, 0, 2*len(bits)), bits)
}

// AppendConvEncode appends ConvEncode(bits) to dst and returns the
// extended slice, so a transmitter can reuse one coded-bit buffer.
func AppendConvEncode(dst, bits []byte) []byte {
	return AppendConvEncodeRange(dst, bits, 0, len(bits))
}

// AppendConvEncodeRange appends ConvEncode(bits)[2*lo:2*hi] to dst — the
// coded bits of input bits [lo, hi) — and returns the extended slice.
// The encoder's state at lo is the six input bits before it, so only
// those are read from the prefix: a transmitter can encode any block of
// a stream without encoding what precedes it.
func AppendConvEncodeRange(dst, bits []byte, lo, hi int) []byte {
	var reg uint32 // the last six input bits, the newest in bit 5
	for _, b := range bits[max(0, lo-(constraintLen-1)):lo] {
		reg = ((uint32(b&1) << 6) | reg) >> 1
	}
	for _, b := range bits[lo:hi] {
		v := (uint32(b&1) << 6) | reg
		dst = append(dst, parity(v&polyA), parity(v&polyB))
		reg = v >> 1
	}
	return dst
}

// CodeRate identifies one of the 802.11 puncturing configurations.
type CodeRate int

// Supported code rates.
const (
	Rate1_2 CodeRate = iota // no puncturing
	Rate2_3                 // drop every second B bit
	Rate3_4                 // drop B2 and A3 of every 6 coded bits
)

// String returns the conventional fraction for the rate.
func (r CodeRate) String() string {
	switch r {
	case Rate1_2:
		return "1/2"
	case Rate2_3:
		return "2/3"
	case Rate3_4:
		return "3/4"
	default:
		return fmt.Sprintf("CodeRate(%d)", int(r))
	}
}

// Num and Den return the numerator/denominator of the code rate.
func (r CodeRate) Num() int {
	switch r {
	case Rate1_2:
		return 1
	case Rate2_3:
		return 2
	case Rate3_4:
		return 3
	default:
		panic("coding: unknown rate")
	}
}

// Den returns the denominator of the code rate fraction.
func (r CodeRate) Den() int {
	switch r {
	case Rate1_2:
		return 2
	case Rate2_3:
		return 3
	case Rate3_4:
		return 4
	default:
		panic("coding: unknown rate")
	}
}

// Keep-masks over one period of mother-code output bits (A1 B1 A2 B2 …),
// per §18.3.5.6 figures 18-9/18-10.
var (
	pattern1_2 = []bool{true, true}
	// period: A1 B1 A2 B2 → keep A1 B1 A2, drop B2
	pattern2_3 = []bool{true, true, true, false}
	// period: A1 B1 A2 B2 A3 B3 → keep A1 B1 A2 B3, drop B2 A3
	pattern3_4 = []bool{true, true, true, false, false, true}
)

// puncturePattern returns the shared keep-mask for r; callers must not
// modify it.
func (r CodeRate) puncturePattern() []bool {
	switch r {
	case Rate1_2:
		return pattern1_2
	case Rate2_3:
		return pattern2_3
	case Rate3_4:
		return pattern3_4
	default:
		panic("coding: unknown rate")
	}
}

// Puncture removes the positions dropped by rate r from mother-code output.
func Puncture(coded []byte, r CodeRate) []byte {
	return AppendPuncture(make([]byte, 0, len(coded)), coded, r)
}

// AppendPuncture appends Puncture(coded, r) to dst and returns the
// extended slice.
func AppendPuncture(dst, coded []byte, r CodeRate) []byte {
	if r == Rate1_2 {
		return append(dst, coded...)
	}
	pat := r.puncturePattern()
	p := 0
	for _, b := range coded {
		if pat[p] {
			dst = append(dst, b)
		}
		if p++; p == len(pat) {
			p = 0
		}
	}
	return dst
}

// Depuncture expands a punctured LLR stream back to mother-code positions,
// inserting 0 (erasure) where bits were dropped. motherLen is the expected
// output length (2 × number of information bits).
func Depuncture(llrs []float64, r CodeRate, motherLen int) ([]float64, error) {
	out := make([]float64, motherLen)
	if err := depunctureInto(out, llrs, r); err != nil {
		return nil, err
	}
	return out, nil
}

// depunctureInto is Depuncture writing all len(out) mother-code
// positions into out.
func depunctureInto(out, llrs []float64, r CodeRate) error {
	pat := r.puncturePattern()
	j, p := 0, 0
	for i := range out {
		if pat[p] {
			if j >= len(llrs) {
				return fmt.Errorf("coding: depuncture needs %d llrs, have %d", j+1, len(llrs))
			}
			out[i] = llrs[j]
			j++
		} else {
			out[i] = 0
		}
		if p++; p == len(pat) {
			p = 0
		}
	}
	if j != len(llrs) {
		return fmt.Errorf("coding: depuncture consumed %d of %d llrs", j, len(llrs))
	}
	return nil
}

// PuncturedLen returns the number of transmitted coded bits for nInfo
// information bits at rate r. nInfo must make the mother output a whole
// number of puncturing periods for rates 2/3 and 3/4 (true for all 802.11
// OFDM symbol sizes).
func PuncturedLen(nInfo int, r CodeRate) int {
	mother := 2 * nInfo
	pat := r.puncturePattern()
	keep := 0
	for _, k := range pat {
		if k {
			keep++
		}
	}
	full := mother / len(pat)
	n := full * keep
	for i := full * len(pat); i < mother; i++ {
		if pat[i%len(pat)] {
			n++
		}
	}
	return n
}
