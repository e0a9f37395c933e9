package coding

import (
	"math/rand"
	"testing"

	"repro/internal/dsp"
)

// BenchmarkViterbiDecode measures the float decode of one 1200-bit DATA
// field given as ±1 LLRs (the soft decoder's per-packet kernel, and the
// hard path's before it moved to integer metrics).
func BenchmarkViterbiDecode(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	bits := make([]byte, 1200)
	for i := range bits {
		bits[i] = byte(r.Intn(2))
	}
	coded := ConvEncode(bits)
	// Flip a few percent of the coded bits.
	for i := range coded {
		if r.Intn(25) == 0 {
			coded[i] ^= 1
		}
	}
	llrs := HardToLLR(coded)
	v := NewViterbi()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Decode(llrs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkViterbiDecodeHard measures the hard-decision DATA decode at
// the aci-fresh packet size: a 400-octet PSDU at QPSK 1/2 is 68 symbols
// of 48 data bits, 3264 trellis steps anchored after SERVICE+PSDU+tail
// (3222 bits), with ~4% of the coded bits flipped.
func BenchmarkViterbiDecodeHard(b *testing.B) { benchDecodeHard(b, false) }

// BenchmarkViterbiDecodeHardScalar is BenchmarkViterbiDecodeHard with the
// SIMD kernel disabled (dsp.ForceScalar), timing the scalar integer loop.
func BenchmarkViterbiDecodeHardScalar(b *testing.B) { benchDecodeHard(b, true) }

func benchDecodeHard(b *testing.B, scalar bool) {
	const nInfo, anchor = 68 * 48, 16 + 8*400 + 6
	r := rand.New(rand.NewSource(1))
	bits := make([]byte, nInfo)
	for i := range bits[:anchor-6] {
		bits[i] = byte(r.Intn(2))
	}
	coded := ConvEncode(bits)
	for i := range coded {
		if r.Intn(25) == 0 {
			coded[i] ^= 1
		}
	}
	dsp.ForceScalar(scalar)
	defer dsp.ForceScalar(false)
	v := NewViterbi()
	var out []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if out, err = v.DecodeHardPuncturedAnchored(out, coded, Rate1_2, nInfo, anchor); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkViterbiDecodeSoft measures the soft DATA decode at the
// aci-pooled-soft packet size: 3264 trellis steps at rate 1/2 anchored
// after SERVICE+PSDU+tail, on real-valued LLRs (see softPacket).
func BenchmarkViterbiDecodeSoft(b *testing.B) { benchDecodeSoft(b, false) }

// BenchmarkViterbiDecodeSoftScalar is BenchmarkViterbiDecodeSoft with the
// SIMD kernel disabled (dsp.ForceScalar), timing forwardFloat.
func BenchmarkViterbiDecodeSoftScalar(b *testing.B) { benchDecodeSoft(b, true) }

func benchDecodeSoft(b *testing.B, scalar bool) {
	llrs, anchor := softPacket(1, Rate1_2)
	nInfo := len(llrs) / 2
	dsp.ForceScalar(scalar)
	defer dsp.ForceScalar(false)
	v := NewViterbi()
	var out []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if out, err = v.DecodePuncturedAnchored(out, llrs, Rate1_2, nInfo, anchor); err != nil {
			b.Fatal(err)
		}
	}
}
