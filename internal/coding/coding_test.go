package coding

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dsp"
)

func TestBytesBitsRoundTrip(t *testing.T) {
	data := []byte{0x00, 0xFF, 0xA5, 0x3C}
	bits := BytesToBits(data)
	if len(bits) != 32 {
		t.Fatalf("bit count %d", len(bits))
	}
	// 0xA5 = 1010 0101, LSB first: 1 0 1 0 0 1 0 1
	want := []byte{1, 0, 1, 0, 0, 1, 0, 1}
	if !bytes.Equal(bits[16:24], want) {
		t.Fatalf("0xA5 bits = %v, want %v", bits[16:24], want)
	}
	if !bytes.Equal(BitsToBytes(bits), data) {
		t.Fatal("round trip failed")
	}
}

func TestBitsToBytesPanicsOnRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BitsToBytes(make([]byte, 7))
}

func TestBytesBitsProperty(t *testing.T) {
	f := func(data []byte) bool {
		return bytes.Equal(BitsToBytes(BytesToBits(data)), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHammingDistance(t *testing.T) {
	if d := HammingDistance([]byte{0, 1, 1, 0}, []byte{1, 1, 0, 0}); d != 2 {
		t.Fatalf("distance = %d, want 2", d)
	}
}

func TestScramblerKnownSequence(t *testing.T) {
	// With the all-ones state 0x7F, the 802.11 scrambler emits the 127-bit
	// repeating sequence whose first octets are (IEEE 802.11-2012 §18.3.5.5)
	// 00001110 11110010 11001001 ... reading LSB-first transmission order:
	// first 16 bits: 0 0 0 0 1 1 1 0 1 1 1 1 0 0 1 0
	s := NewScrambler(0x7F)
	got := s.Sequence(16)
	want := []byte{0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 1, 0, 0, 1, 0}
	if !bytes.Equal(got, want) {
		t.Fatalf("scrambler sequence = %v, want %v", got, want)
	}
}

func TestScramblerPeriod127(t *testing.T) {
	s := NewScrambler(0x5D)
	seq := s.Sequence(254)
	if !bytes.Equal(seq[:127], seq[127:]) {
		t.Fatal("scrambler sequence is not 127-periodic")
	}
	// And it is not shorter-periodic.
	if bytes.Equal(seq[:63], seq[63:126]) {
		t.Fatal("scrambler period unexpectedly divides 63")
	}
}

func TestScramblerSelfInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := dsp.NewRand(seed)
		bits := r.Bits(200)
		orig := append([]byte{}, bits...)
		seedByte := uint8(r.Intn(127) + 1)
		NewScrambler(seedByte).Apply(bits)
		NewScrambler(seedByte).Apply(bits)
		return bytes.Equal(bits, orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestScramblerZeroSeedFallsBack(t *testing.T) {
	a := NewScrambler(0).Sequence(20)
	b := NewScrambler(DefaultScramblerSeed).Sequence(20)
	if !bytes.Equal(a, b) {
		t.Fatal("zero seed should fall back to default")
	}
}

func TestConvEncodeKnownVector(t *testing.T) {
	// Hand-computed from the generator polynomials for input 1 0 1 1 from
	// the zero state:
	// t=0 in=1 reg=000000: A = 1, B = 1
	// t=1 in=0 reg=100000: A = 0·1+prev... computed by definition below.
	in := []byte{1, 0, 1, 1}
	got := ConvEncode(in)
	// Compute expected by direct polynomial definition with D = delay:
	// A = d[t] ^ d[t-2] ^ d[t-3] ^ d[t-5] ^ d[t-6]
	// B = d[t] ^ d[t-1] ^ d[t-2] ^ d[t-3] ^ d[t-6]
	d := func(idx int) byte {
		if idx < 0 || idx >= len(in) {
			return 0
		}
		return in[idx]
	}
	var want []byte
	for t2 := range in {
		a := d(t2) ^ d(t2-2) ^ d(t2-3) ^ d(t2-5) ^ d(t2-6)
		b := d(t2) ^ d(t2-1) ^ d(t2-2) ^ d(t2-3) ^ d(t2-6)
		want = append(want, a, b)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("ConvEncode = %v, want %v", got, want)
	}
}

func TestConvEncodeLength(t *testing.T) {
	if n := len(ConvEncode(make([]byte, 13))); n != 26 {
		t.Fatalf("encoded length %d, want 26", n)
	}
}

// TestConvEncodeRangeMatchesWhole pins the block encoder a windowed
// transmitter relies on: every block [lo, hi) of a stream, including
// blocks that start inside the first six bits, encodes to the matching
// slice of the whole stream's coded bits.
func TestConvEncodeRangeMatchesWhole(t *testing.T) {
	r := dsp.NewRand(4)
	bits := make([]byte, 61)
	for i := range bits {
		bits[i] = byte(r.Intn(2))
	}
	whole := ConvEncode(bits)
	for lo := 0; lo <= len(bits); lo++ {
		for hi := lo; hi <= len(bits); hi += 1 + lo%5 {
			if got := AppendConvEncodeRange(nil, bits, lo, hi); !bytes.Equal(got, whole[2*lo:2*hi]) {
				t.Fatalf("block [%d, %d): coded %v, want %v", lo, hi, got, whole[2*lo:2*hi])
			}
		}
	}
}

func TestViterbiNoiselessRoundTripProperty(t *testing.T) {
	v := NewViterbi()
	f := func(seed int64) bool {
		r := dsp.NewRand(seed)
		info := append(r.Bits(40+r.Intn(100)), make([]byte, 6)...) // tail
		coded := ConvEncode(info)
		dec, err := v.DecodeHard(coded)
		return err == nil && bytes.Equal(dec, info)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestViterbiCorrectsErrors(t *testing.T) {
	// The K=7 code has free distance 10: any ≤4-bit error pattern spread
	// out over the block must be corrected.
	v := NewViterbi()
	r := dsp.NewRand(11)
	info := append(r.Bits(120), make([]byte, 6)...)
	coded := ConvEncode(info)
	corrupt := append([]byte{}, coded...)
	for _, pos := range []int{10, 60, 130, 200} {
		corrupt[pos] ^= 1
	}
	dec, err := v.DecodeHard(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, info) {
		t.Fatal("Viterbi failed to correct 4 spread bit errors")
	}
}

func TestViterbiSoftBeatsErasures(t *testing.T) {
	// Erasures (LLR 0) carry no information; decoding must still succeed
	// when a modest fraction of positions are erased.
	v := NewViterbi()
	r := dsp.NewRand(12)
	info := append(r.Bits(100), make([]byte, 6)...)
	coded := ConvEncode(info)
	llrs := HardToLLR(coded)
	for i := 0; i < len(llrs); i += 7 {
		llrs[i] = 0
	}
	dec, err := v.Decode(llrs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, info) {
		t.Fatal("Viterbi failed with 1/7 erasures")
	}
}

func TestViterbiUnterminated(t *testing.T) {
	v := NewViterbi()
	v.Terminated = false
	r := dsp.NewRand(13)
	info := r.Bits(80) // no tail
	coded := ConvEncode(info)
	dec, err := v.DecodeHard(coded)
	if err != nil {
		t.Fatal(err)
	}
	// Allow the last few bits to be unreliable without termination.
	if !bytes.Equal(dec[:70], info[:70]) {
		t.Fatal("unterminated Viterbi corrupted early bits")
	}
}

func TestViterbiRejectsOddLLRs(t *testing.T) {
	if _, err := NewViterbi().Decode(make([]float64, 3)); err == nil {
		t.Fatal("expected error for odd LLR count")
	}
}

func TestPuncturePatterns(t *testing.T) {
	coded := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	if got := Puncture(coded, Rate1_2); !bytes.Equal(got, coded) {
		t.Fatal("rate 1/2 must not puncture")
	}
	got23 := Puncture(coded, Rate2_3)
	want23 := []byte{1, 2, 3, 5, 6, 7, 9, 10, 11}
	if !bytes.Equal(got23, want23) {
		t.Fatalf("rate 2/3: %v, want %v", got23, want23)
	}
	got34 := Puncture(coded, Rate3_4)
	want34 := []byte{1, 2, 3, 6, 7, 8, 9, 12}
	if !bytes.Equal(got34, want34) {
		t.Fatalf("rate 3/4: %v, want %v", got34, want34)
	}
}

// TestAppendPunctureMatchesModuloLoop pins AppendPuncture to the
// original per-bit loop, pattern position i%period, for every rate and
// every length from 0 to two periods plus one, odd lengths included,
// appending onto a non-empty dst.
func TestAppendPunctureMatchesModuloLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, r := range []CodeRate{Rate1_2, Rate2_3, Rate3_4} {
		pat := r.puncturePattern()
		for n := 0; n <= 2*len(pat)+1; n++ {
			coded := make([]byte, n)
			for i := range coded {
				coded[i] = byte(rng.Intn(256))
			}
			want := []byte{7}
			for i, b := range coded {
				if pat[i%len(pat)] {
					want = append(want, b)
				}
			}
			if got := AppendPuncture([]byte{7}, coded, r); !bytes.Equal(got, want) {
				t.Fatalf("rate %v len %d: %v, want %v", r, n, got, want)
			}
		}
	}
}

func TestPuncturedLen(t *testing.T) {
	// One 802.11 OFDM symbol at 16-QAM rate 1/2: 96 coded bits.
	if n := PuncturedLen(96, Rate1_2); n != 192 {
		t.Fatalf("1/2: %d", n)
	}
	// 54 Mbps symbol: 216 info bits → 288 coded bits at 3/4.
	if n := PuncturedLen(216, Rate3_4); n != 288 {
		t.Fatalf("3/4: %d", n)
	}
	// 2/3: 192 info bits → 288 coded.
	if n := PuncturedLen(192, Rate2_3); n != 288 {
		t.Fatalf("2/3: %d", n)
	}
}

func TestRateAccessors(t *testing.T) {
	for _, c := range []struct {
		r        CodeRate
		num, den int
		str      string
	}{{Rate1_2, 1, 2, "1/2"}, {Rate2_3, 2, 3, "2/3"}, {Rate3_4, 3, 4, "3/4"}} {
		if c.r.Num() != c.num || c.r.Den() != c.den || c.r.String() != c.str {
			t.Errorf("rate %v accessors wrong", c.r)
		}
	}
}

func TestDepunctureRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := dsp.NewRand(seed)
		for _, rate := range []CodeRate{Rate1_2, Rate2_3, Rate3_4} {
			nInfo := 12 * (1 + r.Intn(20)) // multiple of puncture periods
			coded := ConvEncode(r.Bits(nInfo))
			punct := Puncture(coded, rate)
			llrs := HardToLLR(punct)
			mother, err := Depuncture(llrs, rate, 2*nInfo)
			if err != nil {
				return false
			}
			// Non-erased positions must match the original coded bits.
			j := 0
			pat := rate.puncturePattern()
			for i, l := range mother {
				if pat[i%len(pat)] {
					wantBit := coded[i]
					gotBit := byte(0)
					if l < 0 {
						gotBit = 1
					}
					if l == 0 || gotBit != wantBit {
						return false
					}
					j++
				} else if l != 0 {
					return false
				}
			}
			if j != len(punct) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDepunctureErrors(t *testing.T) {
	if _, err := Depuncture(make([]float64, 3), Rate2_3, 8); err == nil {
		t.Fatal("expected error for short llr stream")
	}
	if _, err := Depuncture(make([]float64, 10), Rate2_3, 8); err == nil {
		t.Fatal("expected error for long llr stream")
	}
}

func TestPuncturedViterbiRoundTrip(t *testing.T) {
	v := NewViterbi()
	r := dsp.NewRand(14)
	for _, rate := range []CodeRate{Rate1_2, Rate2_3, Rate3_4} {
		nInfo := 216
		info := append(r.Bits(nInfo-6), make([]byte, 6)...)
		punct := Puncture(ConvEncode(info), rate)
		dec, err := v.DecodePunctured(HardToLLR(punct), rate, nInfo)
		if err != nil {
			t.Fatalf("rate %v: %v", rate, err)
		}
		if !bytes.Equal(dec, info) {
			t.Fatalf("rate %v: punctured round trip failed", rate)
		}
	}
}

func TestPuncturedViterbiCorrectsErrors(t *testing.T) {
	v := NewViterbi()
	r := dsp.NewRand(15)
	info := append(r.Bits(186), make([]byte, 6)...)
	punct := Puncture(ConvEncode(info), Rate3_4)
	punct[20] ^= 1
	punct[120] ^= 1
	dec, err := v.DecodePunctured(HardToLLR(punct), Rate3_4, 192)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, info) {
		t.Fatal("rate 3/4 failed to correct 2 spread errors")
	}
}

func TestInterleaverKnownSize(t *testing.T) {
	// 802.11 QPSK: Ncbps=96, Nbpsc=2.
	il := MustInterleaver(96, 2)
	if il.Ncbps() != 96 {
		t.Fatal("Ncbps")
	}
	// Spot check the first permutation chain: k=0 → i=0 → j=0.
	bits := make([]byte, 96)
	bits[0] = 1
	out := il.Interleave(bits)
	if out[0] != 1 {
		t.Fatal("k=0 should map to position 0")
	}
	// k=1 → i = 6·1 = 6 → j = 6 (s=1 for QPSK).
	bits = make([]byte, 96)
	bits[1] = 1
	out = il.Interleave(bits)
	if out[6] != 1 {
		t.Fatalf("k=1 should map to position 6")
	}
}

func TestInterleaverIsPermutationProperty(t *testing.T) {
	for _, cfg := range []struct{ ncbps, nbpsc int }{
		{48, 1}, {96, 2}, {192, 4}, {288, 6},
	} {
		il := MustInterleaver(cfg.ncbps, cfg.nbpsc)
		seen := make([]bool, cfg.ncbps)
		for k := 0; k < cfg.ncbps; k++ {
			p := il.perm[k]
			if p < 0 || p >= cfg.ncbps || seen[p] {
				t.Fatalf("ncbps=%d: perm not a bijection at k=%d", cfg.ncbps, k)
			}
			seen[p] = true
		}
	}
}

func TestInterleaveRoundTripProperty(t *testing.T) {
	il := MustInterleaver(288, 6)
	f := func(seed int64) bool {
		r := dsp.NewRand(seed)
		bits := r.Bits(288)
		got := il.Deinterleave(il.Interleave(bits))
		return bytes.Equal(got, bits)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDeinterleaveLLRMatchesBits(t *testing.T) {
	il := MustInterleaver(192, 4)
	r := dsp.NewRand(16)
	bits := r.Bits(192)
	inter := il.Interleave(bits)
	llrs := HardToLLR(inter)
	deLLR := il.DeinterleaveLLR(llrs)
	deBits := il.Deinterleave(inter)
	for i := range deBits {
		want := 1.0
		if deBits[i] == 1 {
			want = -1
		}
		if deLLR[i] != want {
			t.Fatalf("LLR deinterleave mismatch at %d", i)
		}
	}
}

func TestInterleaverRejectsBadNcbps(t *testing.T) {
	if _, err := NewInterleaver(50, 2); err == nil {
		t.Fatal("expected error for Ncbps not multiple of 16")
	}
	if _, err := NewInterleaver(0, 2); err == nil {
		t.Fatal("expected error for zero Ncbps")
	}
}

func TestInterleaverSpreadsAdjacentBits(t *testing.T) {
	// The whole point of the interleaver: adjacent coded bits must land on
	// non-adjacent positions (≥ Ncbps/16 apart in the first permutation).
	il := MustInterleaver(192, 4)
	for k := 0; k+1 < 192; k++ {
		d := il.perm[k+1] - il.perm[k]
		if d < 0 {
			d = -d
		}
		if d < 2 {
			t.Fatalf("adjacent bits %d,%d map %d apart", k, k+1, d)
		}
	}
}

func TestFCSRoundTrip(t *testing.T) {
	data := []byte("hello 802.11 world")
	frame := AppendFCS(data)
	if len(frame) != len(data)+4 {
		t.Fatalf("frame length %d", len(frame))
	}
	body, ok := CheckFCS(frame)
	if !ok || !bytes.Equal(body, data) {
		t.Fatal("FCS round trip failed")
	}
}

func TestFCSDetectsCorruption(t *testing.T) {
	frame := AppendFCS([]byte{1, 2, 3, 4, 5})
	for i := range frame {
		bad := append([]byte{}, frame...)
		bad[i] ^= 0x10
		if _, ok := CheckFCS(bad); ok {
			t.Fatalf("corruption at octet %d went undetected", i)
		}
	}
}

func TestFCSShortFrame(t *testing.T) {
	if _, ok := CheckFCS([]byte{1, 2, 3}); ok {
		t.Fatal("short frame must fail")
	}
}

func TestFCSProperty(t *testing.T) {
	f := func(data []byte) bool {
		body, ok := CheckFCS(AppendFCS(data))
		return ok && bytes.Equal(body, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkViterbi1000Bits(b *testing.B) {
	v := NewViterbi()
	r := dsp.NewRand(1)
	info := append(r.Bits(994), make([]byte, 6)...)
	llrs := HardToLLR(ConvEncode(info))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := v.Decode(llrs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConvEncode1000Bits(b *testing.B) {
	r := dsp.NewRand(1)
	info := r.Bits(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ConvEncode(info)
	}
}
