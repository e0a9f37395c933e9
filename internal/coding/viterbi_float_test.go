package coding

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dsp"
)

// floatStream draws an n-step mother LLR stream of one kind:
//   - 0: exact zeros of both signs (every path metric ties);
//   - 1: small integers, ±0 included (ties at many states);
//   - 2: Gaussians, each scaled by 10^u with u uniform in [−3, 3];
//   - 3: a punctured rate-2/3 or 3/4 stream of Gaussians, depunctured
//     with exact-0 erasures;
//   - 4: every kind above mixed element by element;
//   - 5: Gaussians with about one element in 50 NaN or ±Inf. Survivors
//     depend only on comparisons, which ignore NaN payloads, so these
//     must match too: they pin the NaN rule of the compare.
func floatStream(rng *rand.Rand, n, kind int) []float64 {
	draw := func(kind int) float64 {
		switch kind {
		case 0:
			return math.Copysign(0, float64(rng.Intn(2)*2-1))
		case 1:
			if v := rng.Intn(7) - 3; v != 0 {
				return float64(v)
			}
			return math.Copysign(0, float64(rng.Intn(2)*2-1))
		default:
			return rng.NormFloat64() * math.Pow(10, 6*rng.Float64()-3)
		}
	}
	out := make([]float64, 2*n)
	switch kind {
	case 3:
		r := Rate2_3 + CodeRate(rng.Intn(2))
		punct := make([]float64, 0, 2*n)
		pat := r.puncturePattern()
		for i := range out {
			if pat[i%len(pat)] {
				punct = append(punct, draw(2))
			}
		}
		mother, err := Depuncture(punct, r, 2*n)
		if err != nil {
			panic(err)
		}
		return mother
	case 4:
		for i := range out {
			out[i] = draw(rng.Intn(3))
		}
	case 5:
		special := [...]float64{math.NaN(), math.Inf(1), math.Inf(-1)}
		for i := range out {
			if out[i] = draw(2); rng.Intn(50) == 0 {
				out[i] = special[rng.Intn(len(special))]
			}
		}
	default:
		for i := range out {
			out[i] = draw(kind)
		}
	}
	return out
}

// checkFloatKernel requires the dispatched forward pass to equal
// forwardFloat on every survivor word and the best final state.
func checkFloatKernel(t *testing.T, llrs []float64, what string) {
	t.Helper()
	n := len(llrs) / 2
	sK, sS := make([]uint64, n), make([]uint64, n)
	got, ok := forwardFloatSIMD(llrs, sK)
	if !ok {
		t.Skipf("no float ACS kernel in this build (%s)", dsp.SIMDName())
	}
	want := forwardFloat(llrs, sS)
	for i := range sK {
		if sK[i] != sS[i] {
			t.Fatalf("%s n=%d step %d: survivors %#x vs scalar %#x", what, n, i, sK[i], sS[i])
		}
	}
	if got != want {
		t.Fatalf("%s n=%d: best final state %d vs scalar %d", what, n, got, want)
	}
}

// TestForwardFloatKernelMatchesScalar pins the AVX2 float kernel to
// forwardFloat on survivor words and the best final state over 420
// random streams: odd and even lengths (so either ping-pong buffer holds
// the final metrics), signed zeros, integer ties, Gaussians from 1e-3 to
// 1e3, depunctured streams with erasures and non-finite values.
func TestForwardFloatKernelMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 420; i++ {
		n := 1 + rng.Intn(3000)
		if n%2 != i%2 {
			n++
		}
		checkFloatKernel(t, floatStream(rng, n, i%6), "random")
	}
}

// FuzzForwardFloat drives the float kernel with fuzzer-chosen finite
// LLRs (raw float64 bits, non-finite values folded to small ones) and
// requires it to equal forwardFloat.
func FuzzForwardFloat(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 16))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f})
	f.Add(bytes.Repeat([]byte{0xff, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xef, 0x7f}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		llrs := make([]float64, len(data)/16*2)
		for i := range llrs {
			raw := binary.LittleEndian.Uint64(data[8*i:])
			v := math.Float64frombits(raw)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = float64(int64(raw%(1<<20))-1<<19) / 1024
			}
			llrs[i] = v
		}
		if len(llrs) == 0 {
			return
		}
		checkFloatKernel(t, llrs, "fuzz")
	})
}

// TestFloatCostSelectors pins the four VPERMPD selectors acsFloatAVX2
// hard-codes against outsIn: group g (destination states 4g…4g+3) takes
// its even-predecessor costs P and odd-predecessor costs Q from
// C = [0, la, lb, la+lb] with the selectors below, two bits per lane.
func TestFloatCostSelectors(t *testing.T) {
	asm := [8][2]uint8{
		{0x44, 0xBB}, {0xBB, 0x44}, {0xBB, 0x44}, {0x44, 0xBB},
		{0xEE, 0x11}, {0x11, 0xEE}, {0x11, 0xEE}, {0xEE, 0x11},
	}
	for g, sel := range asm {
		var p, q uint8
		for j := 0; j < 4; j++ {
			k := 4*g + j
			p |= outsIn[0][2*k] << (2 * j)
			q |= outsIn[0][2*k+1] << (2 * j)
		}
		if sel != [2]uint8{p, q} {
			t.Fatalf("group %d: kernel selectors %#x/%#x, outsIn gives %#x/%#x", g, sel[0], sel[1], p, q)
		}
	}
}

// TestSoftKernelDispatch checks which float forward pass a build runs:
// the AVX2 kernel exactly when internal/dsp reports AVX2, forwardFloat
// under ForceScalar, in purego builds and on other architectures.
func TestSoftKernelDispatch(t *testing.T) {
	surv := make([]uint64, 1)
	if _, got := forwardFloatSIMD(make([]float64, 2), surv); got != (dsp.SIMDName() == "avx2") {
		t.Fatalf("kernel ran = %v with dsp.SIMDName() = %q", got, dsp.SIMDName())
	}
	dsp.ForceScalar(true)
	defer dsp.ForceScalar(false)
	if _, ran := forwardFloatSIMD(make([]float64, 2), surv); ran {
		t.Fatal("kernel ran under ForceScalar(true)")
	}
}

// softPacket is a soft DATA field at the aci-pooled-soft size — 3264
// anchored steps at rate 1/2 — as real-valued LLRs: a noisy codeword
// with Gaussian weights. It returns the punctured stream at rate r and
// the anchor.
func softPacket(seed int64, r CodeRate) ([]float64, int) {
	const nInfo, anchor = 68 * 48, 16 + 8*400 + 6
	rng := rand.New(rand.NewSource(seed))
	bits := make([]byte, nInfo)
	for i := range bits[:anchor-6] {
		bits[i] = byte(rng.Intn(2))
	}
	coded := Puncture(ConvEncode(bits), r)
	llrs := make([]float64, len(coded))
	for i, b := range coded {
		llrs[i] = (1 - 2*float64(b)) + 0.8*rng.NormFloat64()
	}
	return llrs, anchor
}

// TestSoftDecodePoolReuse decodes long, short and long again through the
// pooled mother-stream and survivor buffers and one reused output buffer,
// filling the pooled buffers with NaN (survivors with all-ones words, the
// output with 0xff) in between, and requires every result to equal a
// decode on freshly allocated buffers.
func TestSoftDecodePoolReuse(t *testing.T) {
	v := NewViterbi()
	long, anchor := softPacket(1, Rate3_4)
	nLong := len(long) * 3 / 4
	short := long[:48*3]
	nShort := 48 * 3 * 3 / 4
	fresh := func(llrs []float64, nInfo, anchor int) []byte {
		mother, err := Depuncture(llrs, Rate3_4, 2*nInfo)
		if err != nil {
			t.Fatal(err)
		}
		surv := make([]uint64, nInfo)
		final, ok := forwardFloatSIMD(mother, surv)
		if !ok {
			final = forwardFloat(mother, surv)
		}
		return traceAnchored(nil, surv, final, anchor)
	}
	poison := func() {
		if bp, _ := float64Pool.Get().(*[]float64); bp != nil {
			for i := range (*bp)[:cap(*bp)] {
				(*bp)[:cap(*bp)][i] = math.NaN()
			}
			float64Pool.Put(bp)
		}
		if dp, _ := decisionsPool.Get().(*[]uint64); dp != nil {
			for i := range (*dp)[:cap(*dp)] {
				(*dp)[:cap(*dp)][i] = ^uint64(0)
			}
			decisionsPool.Put(dp)
		}
	}
	var out []byte
	for i, c := range []struct {
		llrs          []float64
		nInfo, anchor int
	}{{long, nLong, anchor}, {short, nShort, nShort / 2}, {long, nLong, anchor}} {
		got, err := v.DecodePuncturedAnchored(out, c.llrs, Rate3_4, c.nInfo, c.anchor)
		if err != nil {
			t.Fatal(err)
		}
		if want := fresh(c.llrs, c.nInfo, c.anchor); !bytes.Equal(got, want) {
			t.Fatalf("decode %d on reused buffers differs from a fresh decode", i)
		}
		poison()
		out = got[:cap(got)]
		for j := range out {
			out[j] = 0xff
		}
	}
}

// TestSoftDecodeSteadyStateAllocs requires a steady-state soft decode of
// a packet-sized stream into a reused bit buffer not to allocate: the
// mother stream and survivors come from pools. Skipped under -race,
// where sync.Pool drops items at random.
func TestSoftDecodeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	llrs, anchor := softPacket(2, Rate1_2)
	nInfo := len(llrs) / 2
	v := NewViterbi()
	var out []byte
	if a := testing.AllocsPerRun(20, func() {
		var err error
		if out, err = v.DecodePuncturedAnchored(out, llrs, Rate1_2, nInfo, anchor); err != nil {
			t.Fatal(err)
		}
	}); a > 0 {
		t.Fatalf("soft decode allocates %v times per run, want 0", a)
	}
}
