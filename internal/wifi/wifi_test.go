package wifi

import (
	"bytes"
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"repro/internal/coding"
	"repro/internal/dsp"
	"repro/internal/modem"
	"repro/internal/ofdm"
)

func TestStandardMCSTable(t *testing.T) {
	all := StandardMCS()
	if len(all) != 8 {
		t.Fatalf("MCS count %d", len(all))
	}
	for _, m := range all {
		if m.Ncbps != 48*m.Nbpsc {
			t.Errorf("%s: Ncbps %d != 48*Nbpsc", m.Name, m.Ncbps)
		}
		wantNdbps := m.Ncbps * m.Rate.Num() / m.Rate.Den()
		if m.Ndbps != wantNdbps {
			t.Errorf("%s: Ndbps %d, want %d", m.Name, m.Ndbps, wantNdbps)
		}
		if m.Scheme.BitsPerSymbol() != m.Nbpsc {
			t.Errorf("%s: scheme bpsc mismatch", m.Name)
		}
		// Mbps = Ndbps / 4 µs.
		if m.Mbps != float64(m.Ndbps)/4 {
			t.Errorf("%s: Mbps %v vs Ndbps %d", m.Name, m.Mbps, m.Ndbps)
		}
	}
}

func TestMCSByNameAndRateBits(t *testing.T) {
	m, err := MCSByName("16-QAM 1/2")
	if err != nil || m.Mbps != 24 {
		t.Fatalf("MCSByName: %v %v", m, err)
	}
	if _, err := MCSByName("nope"); err == nil {
		t.Fatal("expected error")
	}
	for _, m := range StandardMCS() {
		got, err := MCSByRateBits(m.RateBits)
		if err != nil || got.Name != m.Name {
			t.Errorf("RateBits %04b: %v %v", m.RateBits, got.Name, err)
		}
	}
	if _, err := MCSByRateBits(0b0000); err == nil {
		t.Fatal("expected error for invalid rate bits")
	}
}

func TestPaperMCS(t *testing.T) {
	ms := PaperMCS()
	if len(ms) != 3 || ms[0].Name != "QPSK 1/2" || ms[2].Name != "64-QAM 2/3" {
		t.Fatalf("PaperMCS = %v", ms)
	}
}

func TestSymbolsForPSDU(t *testing.T) {
	m, _ := MCSByName("QPSK 1/2") // Ndbps 48
	// 400-byte packet (the paper's size): 16+3200+6 = 3222 bits → 68 symbols.
	if n := m.SymbolsForPSDU(400); n != 68 {
		t.Fatalf("symbols = %d, want 68", n)
	}
	if n := m.SymbolsForPSDU(1); n != 1 {
		t.Fatalf("1-byte PSDU symbols = %d", n)
	}
}

func TestSignalBitsRoundTrip(t *testing.T) {
	for _, m := range StandardMCS() {
		for _, ln := range []int{1, 100, 400, 4095} {
			bits, err := EncodeSignalBits(m, ln)
			if err != nil {
				t.Fatal(err)
			}
			gm, gl, err := DecodeSignalBits(bits)
			if err != nil {
				t.Fatalf("%s len %d: %v", m.Name, ln, err)
			}
			if gm.Name != m.Name || gl != ln {
				t.Fatalf("decoded %s/%d, want %s/%d", gm.Name, gl, m.Name, ln)
			}
		}
	}
}

func TestSignalBitsRejectBadLength(t *testing.T) {
	m := StandardMCS()[0]
	if _, err := EncodeSignalBits(m, 0); err == nil {
		t.Fatal("length 0 should fail")
	}
	if _, err := EncodeSignalBits(m, 4096); err == nil {
		t.Fatal("length 4096 should fail")
	}
}

func TestSignalParityDetection(t *testing.T) {
	m := StandardMCS()[2]
	bits, _ := EncodeSignalBits(m, 50)
	bits[7] ^= 1
	if _, _, err := DecodeSignalBits(bits); err == nil {
		t.Fatal("flipped bit should break parity")
	}
	if _, _, err := DecodeSignalBits(make([]byte, 10)); err == nil {
		t.Fatal("wrong length should fail")
	}
}

func TestSignalSymbolCodedRoundTrip(t *testing.T) {
	v := coding.NewViterbi()
	for _, m := range StandardMCS() {
		coded, err := EncodeSignalSymbolBits(m, 321)
		if err != nil {
			t.Fatal(err)
		}
		if len(coded) != 48 {
			t.Fatalf("coded SIGNAL bits = %d", len(coded))
		}
		gm, gl, err := DecodeSignalSymbolLLRs(coding.HardToLLR(coded), v)
		if err != nil {
			t.Fatal(err)
		}
		if gm.Name != m.Name || gl != 321 {
			t.Fatalf("round trip got %s/%d", gm.Name, gl)
		}
	}
	if _, _, err := DecodeSignalSymbolLLRs(make([]float64, 10), v); err == nil {
		t.Fatal("wrong llr count should fail")
	}
}

func TestBuildPSDUHasValidFCS(t *testing.T) {
	psdu := BuildPSDU([]byte("payload"))
	if body, ok := coding.CheckFCS(psdu); !ok || string(body) != "payload" {
		t.Fatal("BuildPSDU FCS invalid")
	}
}

// TestDrawPSDUIntoMatchesBuildPSDU pins DrawPSDUInto to BuildPSDU over a
// random payload, including what it leaves of the RNG stream, and checks
// that it overwrites every octet of a dirty buffer.
func TestDrawPSDUIntoMatchesBuildPSDU(t *testing.T) {
	for _, n := range []int{5, 100, 400} {
		want := BuildPSDU(dsp.NewRand(7).Bytes(n - 4))
		r := dsp.NewRand(7)
		dst := bytes.Repeat([]byte{0xAA}, n)
		if got := DrawPSDUInto(dst, r); !bytes.Equal(got, want) {
			t.Fatalf("n=%d: DrawPSDUInto differs from BuildPSDU", n)
		}
		ref := dsp.NewRand(7)
		ref.Bytes(n - 4)
		if r.Int63() != ref.Int63() {
			t.Fatalf("n=%d: DrawPSDUInto left the RNG at a different point", n)
		}
	}
}

func mustPPDU(t *testing.T, cfg TxConfig, psdu []byte) *PPDU {
	t.Helper()
	p, err := BuildPPDU(cfg, psdu)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPPDULayout(t *testing.T) {
	m, _ := MCSByName("QPSK 1/2")
	cfg := TxConfig{Grid: ofdm.Native80211Grid(), MCS: m}
	psdu := dsp.NewRand(1).Bytes(100)
	p := mustPPDU(t, cfg, psdu)
	if p.PreambleLen != 320 {
		t.Fatalf("preamble %d", p.PreambleLen)
	}
	if p.SignalStart != 320 || p.DataStart != 400 {
		t.Fatalf("layout: signal %d data %d", p.SignalStart, p.DataStart)
	}
	wantSyms := m.SymbolsForPSDU(100)
	if p.NumDataSymbols != wantSyms {
		t.Fatalf("symbols %d, want %d", p.NumDataSymbols, wantSyms)
	}
	if len(p.Samples) != 400+wantSyms*80 {
		t.Fatalf("total samples %d", len(p.Samples))
	}
	if p.DataSymbolStart(2) != p.DataStart+160 {
		t.Fatal("DataSymbolStart")
	}
}

func TestBuildPPDURejectsBadInput(t *testing.T) {
	m, _ := MCSByName("QPSK 1/2")
	if _, err := BuildPPDU(TxConfig{Grid: ofdm.Grid{NFFT: 48}, MCS: m}, []byte{1}); err == nil {
		t.Fatal("bad grid should fail")
	}
	cfg := TxConfig{Grid: ofdm.Native80211Grid(), MCS: m}
	if _, err := BuildPPDU(cfg, nil); err == nil {
		t.Fatal("empty PSDU should fail")
	}
	if _, err := BuildPPDU(cfg, make([]byte, 5000)); err == nil {
		t.Fatal("oversize PSDU should fail")
	}
}

func TestPPDUUnitPower(t *testing.T) {
	m, _ := MCSByName("16-QAM 1/2")
	cfg := TxConfig{Grid: ofdm.Native80211Grid(), MCS: m}
	p := mustPPDU(t, cfg, dsp.NewRand(2).Bytes(400))
	pw := dsp.Power(p.Samples)
	if pw < 0.7 || pw > 1.4 {
		t.Fatalf("average PPDU power = %v, want ~1", pw)
	}
}

func TestPPDUPilotsMatchSchedule(t *testing.T) {
	m, _ := MCSByName("QPSK 1/2")
	g := ofdm.Native80211Grid()
	cfg := TxConfig{Grid: g, MCS: m, Gain: 1}
	p := mustPPDU(t, cfg, dsp.NewRand(3).Bytes(60))
	d := ofdm.MustDemodulator(g)
	// SIGNAL symbol uses p₀, data symbol k uses p₍k₊₁₎.
	for k := -1; k < p.NumDataSymbols; k++ {
		start := p.SignalStart + (k+1)*g.SymLen()
		bins, err := d.Standard(p.Samples, start)
		if err != nil {
			t.Fatal(err)
		}
		for sc, want := range ofdm.PilotValues(k + 1) {
			if got := bins[g.Bin(sc)]; cmplx.Abs(got-want) > 1e-6 {
				t.Fatalf("symbol %d pilot %d: got %v want %v", k, sc, got, want)
			}
		}
	}
}

// decodePPDU inverts the DATA pipeline with an ideal (zero-channel)
// demodulation; this is the specification the rx package implements.
func decodePPDU(t *testing.T, p *PPDU) []byte {
	t.Helper()
	g := p.Cfg.Grid
	d := ofdm.MustDemodulator(g)
	cons := modem.New(p.Cfg.MCS.Scheme)
	il, err := DataInterleaver(p.Cfg.MCS)
	if err != nil {
		t.Fatal(err)
	}
	scs := ofdm.DataSubcarriers()
	var coded []byte
	for k := 0; k < p.NumDataSymbols; k++ {
		bins, err := d.Standard(p.Samples, p.DataSymbolStart(k))
		if err != nil {
			t.Fatal(err)
		}
		rx := make([]complex128, len(scs))
		for i, sc := range scs {
			rx[i] = bins[g.Bin(sc)]
		}
		blk := cons.HardDemap(rx, nil)
		coded = append(coded, il.Deinterleave(blk)...)
	}
	nInfo := p.NumDataSymbols * p.Cfg.MCS.Ndbps
	v := coding.NewViterbi()
	// Anchor the traceback at the known zero state after the tail bits:
	// the scrambled pad bits leave the encoder in a nonzero state, so a
	// plain terminated traceback can corrupt payload bits when the pad is
	// shorter than the survivor-merge depth.
	bits, err := v.DecodePuncturedAnchored(nil, coding.HardToLLR(coded), p.Cfg.MCS.Rate, nInfo, DataAnchorBit(p.PSDULen, nInfo))
	if err != nil {
		t.Fatal(err)
	}
	coding.NewScrambler(p.Cfg.ScramblerSeed).Apply(bits)
	return coding.BitsToBytes(bits[16 : 16+8*p.PSDULen])
}

func TestPPDUDataRoundTripAllMCS(t *testing.T) {
	r := dsp.NewRand(4)
	for _, m := range StandardMCS() {
		cfg := TxConfig{Grid: ofdm.Native80211Grid(), MCS: m, Gain: 1}
		psdu := BuildPSDU(r.Bytes(120))
		p := mustPPDU(t, cfg, psdu)
		got := decodePPDU(t, p)
		if !bytes.Equal(got, psdu) {
			t.Fatalf("%s: PSDU round trip failed", m.Name)
		}
		if body, ok := coding.CheckFCS(got); !ok || len(body) != 120 {
			t.Fatalf("%s: FCS check failed after round trip", m.Name)
		}
	}
}

func TestPPDURoundTripOnWideGrid(t *testing.T) {
	r := dsp.NewRand(5)
	m, _ := MCSByName("64-QAM 2/3")
	cfg := TxConfig{Grid: ofdm.WideGrid(64, 16, 4, 128), MCS: m, Gain: 1}
	psdu := BuildPSDU(r.Bytes(200))
	p := mustPPDU(t, cfg, psdu)
	if got := decodePPDU(t, p); !bytes.Equal(got, psdu) {
		t.Fatal("wide-grid PSDU round trip failed")
	}
}

func TestPPDURoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := dsp.NewRand(seed)
		all := StandardMCS()
		m := all[r.Intn(len(all))]
		cfg := TxConfig{
			Grid:          ofdm.Native80211Grid(),
			MCS:           m,
			ScramblerSeed: uint8(r.Intn(128)),
			Gain:          1,
		}
		psdu := r.Bytes(1 + r.Intn(300))
		p, err := BuildPPDU(cfg, psdu)
		if err != nil {
			return false
		}
		return bytes.Equal(decodePPDU(t, p), psdu)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestScramblerSeedChangesWaveform(t *testing.T) {
	m, _ := MCSByName("QPSK 1/2")
	cfg1 := TxConfig{Grid: ofdm.Native80211Grid(), MCS: m, ScramblerSeed: 0x5D, Gain: 1}
	cfg2 := cfg1
	cfg2.ScramblerSeed = 0x11
	psdu := make([]byte, 50)
	p1 := mustPPDU(t, cfg1, psdu)
	p2 := mustPPDU(t, cfg2, psdu)
	if dsp.MaxAbsDiff(p1.Samples[p1.DataStart:], p2.Samples[p2.DataStart:]) < 1e-6 {
		t.Fatal("different scrambler seeds should change the data waveform")
	}
	// But both decode to the same PSDU.
	if !bytes.Equal(decodePPDU(t, p1), decodePPDU(t, p2)) {
		t.Fatal("seed must not affect decoded data")
	}
}

func BenchmarkBuildPPDU400B(b *testing.B) {
	m, _ := MCSByName("16-QAM 1/2")
	cfg := TxConfig{Grid: ofdm.Native80211Grid(), MCS: m}
	psdu := BuildPSDU(dsp.NewRand(1).Bytes(396))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildPPDU(cfg, psdu); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBuildPPDUIntoDirtyBuffer pins the window contract of
// BuildPPDUInto on a buffer pre-filled with NaN: every sample inside
// [lo, hi) comes back equal, by Float64bits, to a fresh BuildPPDU, with
// the same layout and in the caller's buffer, and a DATA symbol wholly
// outside the window is never synthesised (its NaN survives). It runs
// across MCSs, grids and two PSDU lengths (so the buffer is reused at a
// shorter length), for the whole PPDU and for windows on the preamble,
// SIGNAL and DATA symbol edges, a two-sample margin before an edge (a
// three-tap channel's taps−1), single samples, an empty window and
// windows that overhang either end.
func TestBuildPPDUIntoDirtyBuffer(t *testing.T) {
	nan := complex(math.NaN(), math.NaN())
	buf := make([]complex128, 40000)
	for _, g := range []ofdm.Grid{ofdm.Native80211Grid(), ofdm.WideGrid(64, 16, 4, 64)} {
		symLen := g.SymLen()
		for _, m := range StandardMCS() {
			for _, n := range []int{300, 40} {
				cfg := TxConfig{Grid: g, MCS: m, ScramblerSeed: uint8(n)}
				psdu := BuildPSDU(dsp.NewRand(int64(n)).Bytes(n))
				want := mustPPDU(t, cfg, psdu)
				total, ds, sig := len(want.Samples), want.DataStart, want.SignalStart
				mid := ds + (want.NumDataSymbols/2)*symLen
				windows := [][2]int{
					{0, math.MaxInt}, {-50, total}, {0, sig}, {sig, ds}, {sig - 1, sig + 1},
					{ds, ds + symLen}, {ds - 2, ds + 1}, {mid, mid + symLen}, {mid - 2, mid + 3*symLen},
					{mid + 7, mid + 8}, {mid, total}, {total - 1, total + 100}, {-300, 1}, {mid, mid},
				}
				for _, w := range windows {
					for i := range buf {
						buf[i] = nan
					}
					got, err := BuildPPDUInto(buf, cfg, psdu, w[0], w[1])
					if err != nil {
						t.Fatal(err)
					}
					if &got.Samples[0] != &buf[0] {
						t.Fatalf("%s: BuildPPDUInto did not reuse a large enough buffer", m.Name)
					}
					if len(got.Samples) != total || got.DataStart != ds || got.NumDataSymbols != want.NumDataSymbols {
						t.Fatalf("%s window %v: layout %d/%d/%d, want %d/%d/%d", m.Name, w, len(got.Samples),
							got.DataStart, got.NumDataSymbols, total, ds, want.NumDataSymbols)
					}
					lo, hi := max(w[0], 0), min(w[1], total)
					for i := lo; i < hi; i++ {
						if !sameSample(got.Samples[i], want.Samples[i]) {
							t.Fatalf("%s grid %+v psdu %d window %v: sample %d = %v, want %v",
								m.Name, g, n, w, i, got.Samples[i], want.Samples[i])
						}
					}
					for k := range want.NumDataSymbols {
						if start := ds + k*symLen; (start+symLen <= lo || start >= hi) && !math.IsNaN(real(got.Samples[start])) {
							t.Fatalf("%s grid %+v psdu %d window %v: DATA symbol %d lies outside the window but was built",
								m.Name, g, n, w, k)
						}
					}
				}
			}
		}
	}
}

// wholeStreamPPDU is the encoder the windowed builder replaced, kept as
// the reference: it scrambles, encodes and punctures the whole DATA
// field in one pass and only then cuts it into symbols.
func wholeStreamPPDU(t *testing.T, cfg TxConfig, psdu []byte) []complex128 {
	t.Helper()
	m := cfg.MCS
	mod := ofdm.MustModulator(cfg.Grid)
	gain := mod.GainForUnitPower(52)
	nSym := m.SymbolsForPSDU(len(psdu))
	symLen, pre := cfg.Grid.SymLen(), ofdm.PreambleLen(cfg.Grid)
	out := make([]complex128, pre+(1+nSym)*symLen)
	ofdm.PreambleInto(out[:pre], mod, gain)
	bins := make([]complex128, cfg.Grid.NFFT)
	sig := make([]byte, 48)
	encodeSignalSymbolInto(sig, nil, m, len(psdu))
	assembleSymbolInto(out[pre:pre+symLen], bins, mod, modem.New(modem.BPSK), sig, 0, gain)

	bits := coding.AppendBits(make([]byte, 16), psdu)
	bits = append(bits, make([]byte, nSym*m.Ndbps-len(bits))...)
	coding.NewScrambler(cfg.ScramblerSeed).Apply(bits)
	clear(bits[16+8*len(psdu) : 16+8*len(psdu)+6])
	coded := coding.Puncture(coding.ConvEncode(bits), m.Rate)
	il, err := DataInterleaver(m)
	if err != nil {
		t.Fatal(err)
	}
	blk := make([]byte, m.Ncbps)
	for k := range nSym {
		il.InterleaveInto(blk, coded[k*m.Ncbps:(k+1)*m.Ncbps])
		start := pre + (1+k)*symLen
		assembleSymbolInto(out[start:start+symLen], bins, mod, modem.New(m.Scheme), blk, k+1, gain)
	}
	return out
}

// sameSample reports whether a and b are bit-identical.
func sameSample(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// TestBuildPPDUMatchesWholeStream pins the block-by-block DATA pipeline
// against the whole-stream reference by Float64bits, at every standard
// MCS on the native and a 4× grid, for PSDUs that leave no pad, a short
// pad and a long one.
func TestBuildPPDUMatchesWholeStream(t *testing.T) {
	for _, g := range []ofdm.Grid{ofdm.Native80211Grid(), ofdm.WideGrid(64, 16, 4, 64)} {
		for _, m := range StandardMCS() {
			for _, n := range []int{1, 40, 301} {
				cfg := TxConfig{Grid: g, MCS: m, ScramblerSeed: uint8(n)}
				psdu := BuildPSDU(dsp.NewRand(int64(n)).Bytes(n))
				want := wholeStreamPPDU(t, cfg, psdu)
				got := mustPPDU(t, cfg, psdu).Samples
				if len(got) != len(want) {
					t.Fatalf("%s grid %+v psdu %d: %d samples, want %d", m.Name, g, n, len(got), len(want))
				}
				for i := range want {
					if !sameSample(got[i], want[i]) {
						t.Fatalf("%s grid %+v psdu %d: sample %d = %v, want %v", m.Name, g, n, i, got[i], want[i])
					}
				}
			}
		}
	}
}
