package coding

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dsp"
)

// maxPSDUSteps is the trellis length of the longest legal DATA field
// before padding: 16 SERVICE bits, wifi.MaxPSDULen (4095) octets and six
// tail bits. (internal/wifi imports this package, so the constant is
// spelled out here.)
const maxPSDUSteps = 16 + 8*4095 + 6

// oracleDecode is the textbook Viterbi decoder, written independently of
// the production one as the reference for both of its metric types: a
// per-source-state float64 recursion over explicit next-state and
// branch-output tables, +Inf for unreached states, one predecessor byte
// per state and step, and strict improvement only, so the lower (even)
// predecessor — visited first — wins ties. The branch cost sums la and
// lb before the path metric is added, the association the production
// float decoder documents. Bits [anchor, n) are traced back from the best
// final state (lowest state on ties), bits [0, anchor) from the zero
// state at step anchor; anchor == n is terminated decoding.
func oracleDecode(llrs []float64, anchor int) []byte {
	n := len(llrs) / 2
	var next [numStates][2]int
	var out [numStates][2]byte
	for s := 0; s < numStates; s++ {
		for in := 0; in < 2; in++ {
			reg := uint32(in<<6 | s)
			next[s][in] = int(reg >> 1)
			out[s][in] = parity(reg&polyA) | parity(reg&polyB)<<1
		}
	}
	metric := make([]float64, numStates)
	for s := 1; s < numStates; s++ {
		metric[s] = math.Inf(1)
	}
	pred := make([][numStates]uint8, n)
	for t := 0; t < n; t++ {
		la, lb := llrs[2*t], llrs[2*t+1]
		nm := make([]float64, numStates)
		for s := range nm {
			nm[s] = math.Inf(1)
		}
		for s := 0; s < numStates; s++ {
			for in := 0; in < 2; in++ {
				bm := 0.0
				if out[s][in]&1 != 0 {
					bm = la
				}
				if out[s][in]&2 != 0 {
					bm += lb
				}
				if c, ns := metric[s]+bm, next[s][in]; c < nm[ns] {
					nm[ns] = c
					pred[t][ns] = uint8(s)
				}
			}
		}
		metric = nm
	}
	best := 0
	for s := range metric {
		if metric[s] < metric[best] {
			best = s
		}
	}
	bits := make([]byte, n)
	walk := func(lo, hi, st int) {
		for t := hi - 1; t >= lo; t-- {
			bits[t] = byte(st >> 5)
			st = int(pred[t][st])
		}
	}
	walk(anchor, n, best)
	walk(0, anchor, 0)
	return bits
}

// hardStream builds an int8 mother stream of n steps: a noisy encoding
// of random bits with channel errors at the given rate, erasures at
// another, and the last six information bits zero so terminated
// decoding is meaningful.
func hardStream(rng *rand.Rand, n int, flip, erase float64) []int8 {
	bits := make([]byte, n)
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	for i := max(n-6, 0); i < n; i++ {
		bits[i] = 0
	}
	coded := ConvEncode(bits)
	out := make([]int8, len(coded))
	for i, b := range coded {
		out[i] = 1 - 2*int8(b)
		switch r := rng.Float64(); {
		case r < flip:
			out[i] = -out[i]
		case r < flip+erase:
			out[i] = 0
		}
	}
	return out
}

func int8ToLLR(s []int8) []float64 {
	out := make([]float64, len(s))
	for i, v := range s {
		out[i] = float64(v)
	}
	return out
}

// decodeInt8 runs the integer forward pass and traceback on a mother
// stream, with the AVX2 kernel (when present) or forced scalar.
func decodeInt8(s []int8, anchor int, scalar bool) []byte {
	dsp.ForceScalar(scalar)
	defer dsp.ForceScalar(false)
	n := len(s) / 2
	if n == 0 {
		return nil
	}
	surv := make([]uint64, n)
	return traceAnchored(nil, surv, forwardHard(s, surv), anchor)
}

// checkAllDecoders requires the float decoder, the integer decoder (both
// dispatch modes) and the oracle to agree on a hard mother stream.
func checkAllDecoders(t *testing.T, s []int8, anchor int, what string) {
	t.Helper()
	llrs := int8ToLLR(s)
	want := oracleDecode(llrs, anchor)
	got, err := NewViterbi().DecodeAnchored(llrs, anchor)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s anchor=%d: float decoder diverges from the oracle", what, anchor)
	}
	if got := decodeInt8(s, anchor, false); !bytes.Equal(got, want) {
		t.Fatalf("%s anchor=%d: integer decoder (%s) diverges from the oracle", what, anchor, dsp.SIMDName())
	}
	if got := decodeInt8(s, anchor, true); !bytes.Equal(got, want) {
		t.Fatalf("%s anchor=%d: scalar integer decoder diverges from the oracle", what, anchor)
	}
}

// TestDecodeMatchesOracle pins both decoders to the textbook oracle bit
// for bit across stream lengths (including ones shorter than the six
// steps it takes to reach every state), anchor positions (zero,
// interior, end-adjacent, end) and input kinds: noisy hard streams with
// erasures, and soft LLRs for the float decoder (whose cost association
// the oracle mirrors).
func TestDecodeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, n := range []int{1, 2, 5, 6, 7, 40, 700, 3000} {
		s := hardStream(rng, n, 0.08, 0.1)
		soft := int8ToLLR(hardStream(rng, n, 0.08, 0.1))
		for i := range soft {
			soft[i] *= rng.Float64() * 3
		}
		for _, anchor := range []int{0, 37, n / 2, n - 7, n} {
			if anchor < 0 || anchor > n {
				continue
			}
			checkAllDecoders(t, s, anchor, "hard")
			got, err := NewViterbi().DecodeAnchored(soft, anchor)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, oracleDecode(soft, anchor)) {
				t.Fatalf("n=%d anchor=%d: soft float decode diverges from the oracle", n, anchor)
			}
		}
		// Decode's Terminated switch is the end anchor or no anchor.
		v := NewViterbi()
		for _, term := range []bool{true, false} {
			v.Terminated = term
			got, err := v.Decode(soft)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, oracleDecode(soft, v.anchorAll(n))) {
				t.Fatalf("n=%d terminated=%v: Decode diverges from the oracle", n, term)
			}
		}
	}
}

// TestDecodeAllErasuresMatchesOracle feeds pure erasures, so every path
// metric ties at every step: the tie rules alone decide every survivor,
// and all decoders must still agree with the oracle.
func TestDecodeAllErasuresMatchesOracle(t *testing.T) {
	n := 2000
	s := make([]int8, 2*n)
	for _, anchor := range []int{0, n / 2, n} {
		checkAllDecoders(t, s, anchor, "all-erasure")
	}
}

// TestDecodeLongStreamsMatchOracle decodes streams of the longest legal
// PSDU through the public entry points — flat survivors, no window — and
// pins them to the oracle, plus a noiseless round trip.
func TestDecodeLongStreamsMatchOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("long oracle decodes")
	}
	rng := rand.New(rand.NewSource(123))
	n := maxPSDUSteps
	s := hardStream(rng, n, 0.05, 0.1)
	for _, anchor := range []int{0, n - 100, n} {
		checkAllDecoders(t, s, anchor, "long")
	}

	// Hard bits through every puncturing rate.
	bits := make([]byte, n)
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	for i := n - 6; i < n; i++ {
		bits[i] = 0
	}
	for _, r := range []CodeRate{Rate1_2, Rate2_3, Rate3_4} {
		coded := Puncture(ConvEncode(bits), r)
		for i := range coded {
			if rng.Intn(30) == 0 {
				coded[i] ^= 1
			}
		}
		checkHardEntry(t, coded, r, n, n-50)
	}

	// Noiseless round trip: the decoded bits reproduce the encoder input.
	dec, err := NewViterbi().DecodeHard(ConvEncode(bits))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, bits) {
		t.Fatal("long noiseless round trip failed")
	}
}

// checkHardEntry requires DecodeHardPuncturedAnchored, in both dispatch
// modes, to equal the float DecodePuncturedAnchored of the same bits as
// ±1 LLRs and the oracle.
func checkHardEntry(t *testing.T, coded []byte, r CodeRate, nInfo, anchor int) {
	t.Helper()
	v := NewViterbi()
	mother, err := Depuncture(HardToLLR(coded), r, 2*nInfo)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleDecode(mother, anchor)
	float, err := v.DecodePuncturedAnchored(nil, HardToLLR(coded), r, nInfo, anchor)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(float, want) {
		t.Fatalf("rate %v n=%d anchor=%d: float decoder diverges from the oracle", r, nInfo, anchor)
	}
	for _, scalar := range []bool{false, true} {
		dsp.ForceScalar(scalar)
		got, err := v.DecodeHardPuncturedAnchored(nil, coded, r, nInfo, anchor)
		dsp.ForceScalar(false)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("rate %v n=%d anchor=%d scalar=%v: integer decoder diverges from the oracle", r, nInfo, anchor, scalar)
		}
	}
}

// FuzzViterbiHard drives the hard decoders with random coded bits at
// every rate, lengths from one step to the longest legal PSDU, anchors at
// the start, middle, end and anywhere, plus erasure-only and tie-heavy
// mother streams. Integer path, float path and oracle must agree, and
// the AVX2 kernel must equal forced scalar.
func FuzzViterbiHard(f *testing.F) {
	// seed, rate, steps, anchor mode (0, n/2, n, random), stream kind.
	f.Add(int64(1), uint8(0), uint32(1), uint8(0), uint8(0))              // one step
	f.Add(int64(2), uint8(1), uint32(7), uint8(2), uint8(0))              // rate 2/3, end anchor
	f.Add(int64(3), uint8(2), uint32(100), uint8(1), uint8(1))            // noisy codeword, rate 3/4
	f.Add(int64(4), uint8(0), uint32(3264), uint8(1), uint8(1))           // aci-fresh packet size
	f.Add(int64(5), uint8(1), uint32(999), uint8(3), uint8(0))            // random anchor
	f.Add(int64(6), uint8(0), uint32(500), uint8(2), uint8(2))            // all erasures
	f.Add(int64(7), uint8(2), uint32(800), uint8(1), uint8(3))            // tie-heavy
	f.Add(int64(8), uint8(2), uint32(maxPSDUSteps-1), uint8(1), uint8(1)) // longest PSDU
	f.Fuzz(func(t *testing.T, seed int64, rate uint8, steps uint32, anchorMode, kind uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(steps%maxPSDUSteps)
		anchor := [...]int{0, n / 2, n, rng.Intn(n + 1)}[anchorMode%4]
		switch kind % 4 {
		case 0: // random coded bits
			r := CodeRate(rate % 3)
			coded := make([]byte, PuncturedLen(n, r))
			for i := range coded {
				coded[i] = byte(rng.Intn(2))
			}
			checkHardEntry(t, coded, r, n, anchor)
		case 1: // a codeword with ~4% flipped bits
			r := CodeRate(rate % 3)
			bits := make([]byte, n)
			for i := range bits {
				bits[i] = byte(rng.Intn(2))
			}
			coded := Puncture(ConvEncode(bits), r)
			for i := range coded {
				if rng.Intn(25) == 0 {
					coded[i] ^= 1
				}
			}
			checkHardEntry(t, coded, r, n, anchor)
		case 2: // erasures only
			checkAllDecoders(t, make([]int8, 2*n), anchor, "all-erasure")
		case 3: // mostly erasures: metric ties at most states
			checkAllDecoders(t, hardStream(rng, n, 0.05, 0.8), anchor, "tie-heavy")
		}
	})
}

// TestHardKernelMatchesScalar pins the AVX2 kernel to the scalar loop on
// survivor words and final metrics, not just decoded bits — unreachable
// states' choices in the first six steps included.
func TestHardKernelMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 3, 6, 64, 3264} {
		for _, erase := range []float64{0, 0.3, 1} {
			s := hardStream(rng, n, 0.1, erase)
			var mA, mB [numStates]int16
			for st := 1; st < numStates; st++ {
				mA[st], mB[st] = hardUnreached, hardUnreached
			}
			sA, sB := make([]uint64, n), make([]uint64, n)
			if !acsHardSIMD(&mA, s, sA) {
				t.Skipf("no integer ACS kernel in this build (%s)", dsp.SIMDName())
			}
			acsHardScalar(&mB, s, sB)
			if mA != mB {
				t.Fatalf("n=%d erase=%v: final metrics differ", n, erase)
			}
			for i := range sA {
				if sA[i] != sB[i] {
					t.Fatalf("n=%d erase=%v step %d: survivors %#x vs scalar %#x", n, erase, i, sA[i], sB[i])
				}
			}
		}
	}
}

// TestHardKernelDispatch checks which forward pass a build runs: the AVX2
// kernel exactly when internal/dsp reports AVX2, the scalar loop under
// ForceScalar, in purego builds and on other architectures.
func TestHardKernelDispatch(t *testing.T) {
	var m [numStates]int16
	surv := make([]uint64, 1)
	if got, want := acsHardSIMD(&m, make([]int8, 2), surv), dsp.SIMDName() == "avx2"; got != want {
		t.Fatalf("kernel ran = %v with dsp.SIMDName() = %q", got, dsp.SIMDName())
	}
	dsp.ForceScalar(true)
	defer dsp.ForceScalar(false)
	if acsHardSIMD(&m, make([]int8, 2), surv) {
		t.Fatal("kernel ran under ForceScalar(true)")
	}
}

// TestTrellisButterflySymmetry pins the code property the AVX2 kernel's
// cost table relies on: the input-1 branches out of a butterfly are the
// input-0 branches with the predecessors swapped.
func TestTrellisButterflySymmetry(t *testing.T) {
	for k := 0; k < numStates/2; k++ {
		if outsIn[1][2*k] != outsIn[0][2*k+1] || outsIn[1][2*k+1] != outsIn[0][2*k] {
			t.Fatalf("butterfly %d is not symmetric", k)
		}
	}
}

// TestViterbiConcurrentShared decodes through one shared *Viterbi from
// many goroutines — every entry point, DecodeAnchored at the end anchor
// included, and soft punctured decodes of two lengths — so the race
// detector sees any decode that writes to the receiver, and the pooled
// survivor, int8 and float64 buffers are exercised concurrently. Every
// result must equal the serial one.
func TestViterbiConcurrentShared(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 1500
	s := hardStream(rng, n, 0.05, 0)
	coded := make([]byte, len(s))
	for i, x := range s {
		if x < 0 {
			coded[i] = 1
		}
	}
	llrs := int8ToLLR(s)
	soft, anchor := softPacket(12, Rate3_4)
	nSoft := len(soft) * 3 / 4
	v := NewViterbi()
	run := func() [6][]byte {
		var r [6][]byte
		var err [6]error
		r[0], err[0] = v.Decode(llrs)
		r[1], err[1] = v.DecodeAnchored(llrs, n)
		r[2], err[2] = v.DecodeAnchored(llrs, n/2)
		r[3], err[3] = v.DecodeHardPuncturedAnchored(nil, coded, Rate1_2, n, n/2)
		r[4], err[4] = v.DecodePuncturedAnchored(nil, soft, Rate3_4, nSoft, anchor)
		r[5], err[5] = v.DecodePunctured(soft[:48*9], Rate3_4, 48*9*3/4)
		for _, e := range err {
			if e != nil {
				t.Error(e)
			}
		}
		return r
	}
	want := run()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				got := run()
				for k := range got {
					if !bytes.Equal(got[k], want[k]) {
						t.Errorf("concurrent decode %d diverges from serial", k)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
