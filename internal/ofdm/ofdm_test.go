package ofdm

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"repro/internal/dsp"
)

func randomValues(r *dsp.Rand, scs []int) map[int]complex128 {
	out := make(map[int]complex128, len(scs))
	for _, sc := range scs {
		out[sc] = cmplx.Rect(1, 2*math.Pi*r.Float64())
	}
	return out
}

func TestGridValidate(t *testing.T) {
	if err := Native80211Grid().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Grid{
		{NFFT: 48, CP: 12},
		{NFFT: 64, CP: -1},
		{NFFT: 64, CP: 64},
	}
	for _, g := range bad {
		if g.Validate() == nil {
			t.Errorf("grid %+v should be invalid", g)
		}
	}
}

func TestGridBin(t *testing.T) {
	g := Native80211Grid()
	if g.Bin(1) != 1 || g.Bin(-1) != 63 || g.Bin(-26) != 38 {
		t.Fatal("native bin mapping wrong")
	}
	w := WideGrid(64, 16, 4, 100)
	if w.NFFT != 256 || w.CP != 64 {
		t.Fatalf("WideGrid numerology: %+v", w)
	}
	if w.Bin(0) != 100 || w.Bin(-26) != 74 || w.Bin(26) != 126 {
		t.Fatal("wide bin mapping wrong")
	}
	// wraparound
	w2 := WideGrid(64, 16, 4, 250)
	if w2.Bin(10) != 4 {
		t.Fatalf("wraparound bin = %d", w2.Bin(10))
	}
}

func TestSymLen(t *testing.T) {
	if Native80211Grid().SymLen() != 80 {
		t.Fatal("native symbol length should be 80")
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	specs := Table1()
	if len(specs) != 4 {
		t.Fatalf("Table 1 rows = %d", len(specs))
	}
	first := specs[0]
	if first.Standard != "802.11a/g" || first.FFTSize != 64 || first.CPSize != 16 || first.DurationUs != 0.8 {
		t.Fatalf("row 1 = %+v", first)
	}
	for _, s := range specs {
		// CP is always 1/4 of the FFT size (long GI), duration scales with size.
		if s.CPSize*4 != s.FFTSize {
			t.Errorf("%s %v MHz: CP %d not FFT/4", s.Standard, s.BandwidthHz/1e6, s.CPSize)
		}
		// The paper's duration column scales CP samples at a fixed 20 Msps
		// reference (16 → 0.8 µs, 32 → 1.6 µs, …); reproduce it as printed.
		wantDur := float64(s.CPSize) / 20
		if math.Abs(wantDur-s.DurationUs) > 1e-9 {
			t.Errorf("%s: duration %v, computed %v", s.Standard, s.DurationUs, wantDur)
		}
	}
	if len(LTETable()) != 2 {
		t.Fatal("LTE table rows")
	}
}

func TestModulatorLoopback(t *testing.T) {
	g := Native80211Grid()
	m := MustModulator(g)
	d := MustDemodulator(g)
	r := dsp.NewRand(1)
	vals := randomValues(r, DataSubcarriers())
	sym := m.Symbol(vals)
	if len(sym) != g.SymLen() {
		t.Fatalf("symbol length %d", len(sym))
	}
	bins, err := d.Standard(sym, 0)
	if err != nil {
		t.Fatal(err)
	}
	for sc, want := range vals {
		if got := bins[g.Bin(sc)]; cmplx.Abs(got-want) > 1e-9 {
			t.Fatalf("sc %d: got %v want %v", sc, got, want)
		}
	}
	// Unused bins stay empty.
	if got := bins[g.Bin(0)]; cmplx.Abs(got) > 1e-9 {
		t.Fatal("DC bin should be empty")
	}
}

func TestCyclicPrefixIsCopyOfTail(t *testing.T) {
	g := Native80211Grid()
	m := MustModulator(g)
	sym := m.Symbol(randomValues(dsp.NewRand(2), DataSubcarriers()))
	for i := 0; i < g.CP; i++ {
		if cmplx.Abs(sym[i]-sym[g.NFFT+i]) > 1e-9 {
			t.Fatalf("CP sample %d is not a copy of the tail", i)
		}
	}
}

func TestSegmentPhaseCorrectionProperty(t *testing.T) {
	// Proposition 3.1: any ISI-free segment, after phase correction, equals
	// the standard window exactly in the absence of noise.
	g := Native80211Grid()
	m := MustModulator(g)
	d := MustDemodulator(g)
	f := func(seed int64) bool {
		r := dsp.NewRand(seed)
		vals := randomValues(r, DataSubcarriers())
		sym := m.Symbol(vals)
		std, err := d.Standard(sym, 0)
		if err != nil {
			return false
		}
		off := r.Intn(g.CP + 1)
		seg, err := segmentRef(d, sym, 0, off)
		if err != nil {
			return false
		}
		return dsp.MaxAbsDiff(std, seg) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentRejectsBadOffset(t *testing.T) {
	g := Native80211Grid()
	d := MustDemodulator(g)
	rx := make([]complex128, g.SymLen())
	if _, err := d.Segments(rx, 0, []int{-1}, nil, nil); err == nil {
		t.Fatal("negative offset should fail")
	}
	if _, err := d.Segments(rx, 0, []int{g.CP + 1}, nil, nil); err == nil {
		t.Fatal("offset beyond CP should fail")
	}
}

func TestWindowAtBounds(t *testing.T) {
	d := MustDemodulator(Native80211Grid())
	if _, err := d.WindowAt(make([]complex128, 63), 0); err == nil {
		t.Fatal("short rx should fail")
	}
	if _, err := d.WindowAt(make([]complex128, 100), -1); err == nil {
		t.Fatal("negative start should fail")
	}
}

func TestCorrectSegmentPhaseZeroDelta(t *testing.T) {
	r := dsp.NewRand(3)
	x := r.CNVector(64, 1)
	y := append([]complex128{}, x...)
	CorrectSegmentPhase(y, 0)
	if dsp.MaxAbsDiff(x, y) != 0 {
		t.Fatal("delta 0 must be identity")
	}
}

func TestWideGridEmbeddingEquivalence(t *testing.T) {
	// A transmitter embedded in a 4× oversampled band must deliver the same
	// subcarrier values through the wide demodulator.
	w := WideGrid(64, 16, 4, 128)
	m := MustModulator(w)
	d := MustDemodulator(w)
	r := dsp.NewRand(4)
	vals := randomValues(r, DataSubcarriers())
	sym := m.Symbol(vals)
	if len(sym) != 320 {
		t.Fatalf("wide symbol length %d", len(sym))
	}
	bins, err := d.Standard(sym, 0)
	if err != nil {
		t.Fatal(err)
	}
	for sc, want := range vals {
		if got := bins[w.Bin(sc)]; cmplx.Abs(got-want) > 1e-9 {
			t.Fatalf("wide sc %d: got %v want %v", sc, got, want)
		}
	}
	// Segments behave identically on the wide grid.
	seg, err := segmentRef(d, sym, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if dsp.MaxAbsDiff(bins, seg) > 1e-8 {
		t.Fatal("wide-grid segment correction failed")
	}
}

func TestGainForUnitPower(t *testing.T) {
	g := Native80211Grid()
	m := MustModulator(g)
	r := dsp.NewRand(5)
	scs := DataSubcarriers()
	// Average over many random symbols.
	var p float64
	const trials = 200
	for i := 0; i < trials; i++ {
		sym := m.Symbol(randomValues(r, scs))
		dsp.Scale(sym, m.GainForUnitPower(len(scs)))
		p += dsp.Power(sym)
	}
	p /= trials
	if math.Abs(p-1) > 0.05 {
		t.Fatalf("normalised power = %v, want ~1", p)
	}
	if m.GainForUnitPower(0) != 0 {
		t.Fatal("zero subcarriers should give zero gain")
	}
}

func TestSegmentPlan(t *testing.T) {
	offs, err := SegmentPlan(16, 1, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(offs) != 16 || offs[0] != 1 || offs[len(offs)-1] != 16 {
		t.Fatalf("plan = %v", offs)
	}
	// Stride 4 on a 64-sample CP: paper's 16 segments.
	offs, err = SegmentPlan(64, 4, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(offs) != 16 || offs[len(offs)-1] != 64 || offs[0] != 4 {
		t.Fatalf("wide plan = %v", offs)
	}
	// numSegments=1 degrades to the standard receiver.
	offs, err = SegmentPlan(16, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(offs) != 1 || offs[0] != 16 {
		t.Fatalf("degenerate plan = %v", offs)
	}
	// Clipping at minOffset.
	offs, err = SegmentPlan(16, 2, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range offs {
		if o < 10 || o > 16 {
			t.Fatalf("offset %d outside ISI-free region", o)
		}
	}
}

func TestSegmentPlanErrors(t *testing.T) {
	if _, err := SegmentPlan(16, 0, 4, 0); err == nil {
		t.Fatal("zero stride")
	}
	if _, err := SegmentPlan(16, 1, 0, 0); err == nil {
		t.Fatal("zero segments")
	}
	if _, err := SegmentPlan(16, 1, 4, 17); err == nil {
		t.Fatal("minOffset beyond CP")
	}
}

func TestDataSubcarriers(t *testing.T) {
	scs := DataSubcarriers()
	if len(scs) != 48 {
		t.Fatalf("data subcarriers = %d, want 48", len(scs))
	}
	seen := map[int]bool{}
	for _, sc := range scs {
		if sc == 0 || sc < -26 || sc > 26 || seen[sc] {
			t.Fatalf("bad data subcarrier %d", sc)
		}
		for _, p := range PilotSubcarriers() {
			if sc == p {
				t.Fatalf("data subcarrier %d collides with pilot", sc)
			}
		}
		seen[sc] = true
	}
}

func TestPilotValues(t *testing.T) {
	// p₀ = 1: SIGNAL symbol pilots are {1,1,1,-1} on {-21,-7,7,21}.
	v := PilotValues(0)
	if v[-21] != 1 || v[-7] != 1 || v[7] != 1 || v[21] != -1 {
		t.Fatalf("symbol-0 pilots = %v", v)
	}
	// First polarity values from the standard: 1,1,1,1,-1,-1,-1,1.
	want := []float64{1, 1, 1, 1, -1, -1, -1, 1}
	for n, w := range want {
		if PilotPolarity(n) != w {
			t.Fatalf("p_%d = %v, want %v", n, PilotPolarity(n), w)
		}
	}
	// Sequence is 127-periodic.
	for n := 0; n < 10; n++ {
		if PilotPolarity(n) != PilotPolarity(n+127) {
			t.Fatal("polarity not 127-periodic")
		}
	}
}

func TestLTFValues(t *testing.T) {
	vals := LTFValues()
	if len(vals) != 52 {
		t.Fatalf("LTF occupies %d subcarriers, want 52", len(vals))
	}
	for sc, v := range vals {
		if sc == 0 {
			t.Fatal("LTF must not occupy DC")
		}
		if cmplx.Abs(v) != 1 {
			t.Fatalf("LTF value at %d is %v, want ±1", sc, v)
		}
		if LTFValue(sc) != v {
			t.Fatal("LTFValue disagrees with LTFValues")
		}
	}
	if LTFValue(0) != 0 || LTFValue(27) != 0 || LTFValue(-27) != 0 {
		t.Fatal("out-of-band LTF values must be 0")
	}
	// Spot values from the standard: L(-26)=1, L(-25)=1, L(-24)=-1, L(26)=1.
	if LTFValue(-26) != 1 || LTFValue(-24) != -1 || LTFValue(26) != 1 {
		t.Fatal("LTF spot values wrong")
	}
}

func TestSTFValues(t *testing.T) {
	vals := STFValues()
	if len(vals) != 12 {
		t.Fatalf("STF occupies %d subcarriers, want 12", len(vals))
	}
	for sc, v := range vals {
		if sc%4 != 0 {
			t.Fatalf("STF subcarrier %d not a multiple of 4", sc)
		}
		want := math.Sqrt(13.0/6.0) * math.Sqrt2
		if math.Abs(cmplx.Abs(v)-want) > 1e-12 {
			t.Fatalf("STF magnitude at %d = %v", sc, cmplx.Abs(v))
		}
	}
}

func TestPreambleStructure(t *testing.T) {
	g := Native80211Grid()
	m := MustModulator(g)
	pre := Preamble(m)
	if len(pre) != 320 || PreambleLen(g) != 320 {
		t.Fatalf("preamble length %d, want 320", len(pre))
	}
	// STF is periodic with period N/4 = 16 over its 160 samples.
	for i := 0; i+16 < 160; i++ {
		if cmplx.Abs(pre[i]-pre[i+16]) > 1e-9 {
			t.Fatalf("STF not 16-periodic at sample %d", i)
		}
	}
	// The two LTF bodies are identical.
	ltf1 := pre[192:256]
	ltf2 := pre[256:320]
	if dsp.MaxAbsDiff(ltf1, ltf2) > 1e-9 {
		t.Fatal("LTF bodies differ")
	}
	// GI2 is the cyclic extension of the LTF body.
	for i := 0; i < 32; i++ {
		if cmplx.Abs(pre[160+i]-pre[192+32+i]) > 1e-9 {
			t.Fatalf("GI2 sample %d is not cyclic extension", i)
		}
	}
}

func TestPreambleLTFDemodulates(t *testing.T) {
	// Demodulating either LTF symbol must return the known LTF values, from
	// every CP segment.
	g := Native80211Grid()
	m := MustModulator(g)
	d := MustDemodulator(g)
	pre := Preamble(m)
	starts := LTFSymbolStarts(g)
	for _, start := range starts {
		for _, off := range []int{0, 5, 16} {
			bins, err := segmentRef(d, pre, start, off)
			if err != nil {
				t.Fatal(err)
			}
			for sc, want := range LTFValues() {
				if got := bins[g.Bin(sc)]; cmplx.Abs(got-want) > 1e-8 {
					t.Fatalf("LTF@%d seg %d sc %d: got %v want %v", start, off, sc, got, want)
				}
			}
		}
	}
}

func TestPreambleOnWideGrid(t *testing.T) {
	w := WideGrid(64, 16, 4, 96)
	m := MustModulator(w)
	d := MustDemodulator(w)
	pre := Preamble(m)
	if len(pre) != 320*4 {
		t.Fatalf("wide preamble length %d", len(pre))
	}
	starts := LTFSymbolStarts(w)
	bins, err := segmentRef(d, pre, starts[0], 10)
	if err != nil {
		t.Fatal(err)
	}
	for sc, want := range LTFValues() {
		if got := bins[w.Bin(sc)]; cmplx.Abs(got-want) > 1e-8 {
			t.Fatalf("wide LTF sc %d: got %v want %v", sc, got, want)
		}
	}
}

func TestSymbolFromBins(t *testing.T) {
	g := Native80211Grid()
	m := MustModulator(g)
	bins := make([]complex128, 64)
	bins[5] = 1
	sym := m.SymbolFromBins(bins)
	d := MustDemodulator(g)
	got, err := d.Standard(sym, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(got[5]-1) > 1e-9 {
		t.Fatalf("bin 5 = %v", got[5])
	}
}

func TestSymbolFromBinsPanicsOnWrongLen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustModulator(Native80211Grid()).SymbolFromBins(make([]complex128, 32))
}

func BenchmarkModulateSymbol(b *testing.B) {
	m := MustModulator(Native80211Grid())
	vals := randomValues(dsp.NewRand(1), DataSubcarriers())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Symbol(vals)
	}
}

func BenchmarkDemodulateSegment(b *testing.B) {
	g := Native80211Grid()
	m := MustModulator(g)
	d := MustDemodulator(g)
	sym := m.Symbol(randomValues(dsp.NewRand(1), DataSubcarriers()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := segmentRef(d, sym, 0, i%17); err != nil {
			b.Fatal(err)
		}
	}
}
