package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"repro/internal/channel"
	"repro/internal/dsp"
	"repro/internal/interference"
	"repro/internal/kde"
	"repro/internal/modem"
	"repro/internal/ofdm"
	"repro/internal/rx"
	"repro/internal/wifi"
)

func mcs(t testing.TB, name string) wifi.MCS {
	t.Helper()
	m, err := wifi.MCSByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// runScenario realises a scenario and returns the frame plus composite.
func runScenario(t testing.TB, s *interference.Scenario, seed int64, mcsName string, psduLen int) (*rx.Frame, *interference.Composite, wifi.MCS) {
	t.Helper()
	r := dsp.NewRand(seed)
	m := mcs(t, mcsName)
	psdu := wifi.BuildPSDU(r.Bytes(psduLen - 4))
	c, err := s.Run(r, psdu, m)
	if err != nil {
		t.Fatal(err)
	}
	f, err := rx.NewFrame(c.Grid, c.Samples, c.FrameStart)
	if err != nil {
		t.Fatal(err)
	}
	return f, c, m
}

// aciScenario is the paper's single adjacent-channel interferer layout:
// 4× composite band, victim at bin 64, interferer offset by the given
// subcarriers (57 = 4-subcarrier guard, §3.2).
func aciScenario(sirDB, snrDB float64, offset int) *interference.Scenario {
	return &interference.Scenario{
		Q:            4,
		VictimCenter: 64,
		SNRdB:        snrDB,
		Channel:      channel.Indoor2Tap(),
		Interferers: []interference.Interferer{
			{CenterOffset: offset, SIRdB: sirDB, Channel: channel.Indoor2Tap()},
		},
	}
}

// segments16 is the paper's default plan: 16 segments across the ISI-free
// CP (stride Q on the composite grid = 1 native sample), skipping the
// offsets corrupted by the 1-sample channel delay spread.
func segments16(t testing.TB, g ofdm.Grid) []int {
	t.Helper()
	q := g.NFFT / 64
	segs, err := ofdm.SegmentPlan(g.CP, q, 16, 2*q)
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

func decodeWith(t testing.TB, f *rx.Frame, m wifi.MCS, psduLen int, d rx.SymbolDecider) bool {
	t.Helper()
	res, err := rx.DecodeData(f, m, psduLen, d)
	if err != nil {
		t.Fatal(err)
	}
	return res.FCSOK
}

func TestConfigValidate(t *testing.T) {
	g := ofdm.Native80211Grid()
	bad := []Config{
		{},
		{Segments: []int{-1}},
		{Segments: []int{17}},
		{Segments: []int{5, 5}},
		{Segments: []int{8, 4}},
		{Segments: []int{4}, Radius: -1},
	}
	for i, c := range bad {
		if c.Validate(g) == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
	good := Config{Segments: []int{2, 9, 16}}
	if err := good.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestReceiverTrainsOnCleanFrame(t *testing.T) {
	s := &interference.Scenario{Q: 1, SNRdB: 30, Channel: channel.Indoor2Tap()}
	f, _, m := runScenario(t, s, 1, "QPSK 1/2", 50)
	segs, err := ofdm.SegmentPlan(16, 1, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	cpr, err := NewReceiver(f, Config{Segments: segs})
	if err != nil {
		t.Fatal(err)
	}
	if cpr.NumSegments() != 15 {
		t.Fatalf("segments = %d", cpr.NumSegments())
	}
	// Deviations on a clean 30 dB frame are small: model amplitudes peak
	// near zero.
	mdl := cpr.ModelFor(0)
	if mdl == nil {
		t.Fatal("pooled model missing")
	}
	if mdl.NumSamples() != 2*cpr.NumSegments() {
		t.Fatalf("model samples = %d", mdl.NumSamples())
	}
	if mdl.Density(0.05, 0) < mdl.Density(2, 0) {
		t.Fatal("clean model should concentrate near zero deviation")
	}
	// And decoding still works.
	if !decodeWith(t, f, m, 50, cpr) {
		t.Fatal("CPRecycle failed on a clean frame")
	}
}

// symbolErrors counts decision errors of a decider against the ground
// truth obtained from the interference-free stream.
func symbolErrors(t testing.TB, f *rx.Frame, c *interference.Composite, m wifi.MCS, d rx.SymbolDecider, nSym int) int {
	t.Helper()
	vict := make([]complex128, len(c.Samples))
	for i := range vict {
		vict[i] = c.Samples[i] - c.InterferenceOnly[i]
	}
	fClean, err := rx.NewFrame(c.Grid, vict, c.FrameStart)
	if err != nil {
		t.Fatal(err)
	}
	cons := modem.New(m.Scheme)
	errs := 0
	for k := 0; k < nSym; k++ {
		truth, err := (rx.StandardDecider{}).DecideSymbol(fClean, k, cons)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.DecideSymbol(f, k, cons)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != truth[i] {
				errs++
			}
		}
	}
	return errs
}

func TestCPRecycleBeatsStandardUnderACI(t *testing.T) {
	// The headline result: under strong adjacent-channel interference the
	// CPRecycle decisions carry far fewer symbol errors than the standard
	// receiver's, and packets decode where the standard receiver fails.
	var stdErrs, cprErrs, stdOK, cprOK int
	const trials = 5
	for i := 0; i < trials; i++ {
		s := aciScenario(-18, 10, 57)
		f, c, m := runScenario(t, s, int64(100+i), "QPSK 1/2", 100)
		segs := segments16(t, f.Grid())
		cpr, err := NewReceiver(f, Config{Segments: segs})
		if err != nil {
			t.Fatal(err)
		}
		stdErrs += symbolErrors(t, f, c, m, rx.StandardDecider{}, 15)
		cprErrs += symbolErrors(t, f, c, m, cpr, 15)
		if decodeWith(t, f, m, 100, rx.StandardDecider{}) {
			stdOK++
		}
		if decodeWith(t, f, m, 100, cpr) {
			cprOK++
		}
	}
	t.Logf("ACI -18dB QPSK: symbol errors std %d vs cpr %d; packets std %d/%d cpr %d/%d",
		stdErrs, cprErrs, stdOK, trials, cprOK, trials)
	if cprErrs*2 > stdErrs {
		t.Fatalf("CPRecycle symbol errors (%d) should be well below standard (%d)", cprErrs, stdErrs)
	}
	if cprOK <= stdOK && cprOK < trials {
		t.Fatalf("CPRecycle packets (%d) should beat standard (%d)", cprOK, stdOK)
	}
}

func TestDeciderOrderingACI(t *testing.T) {
	// Expected hierarchy at strong ACI: oracle ≈ cpr < naive < standard in
	// symbol errors, and the ablated variants trail the full receiver.
	errs := map[string]int{}
	const trials = 4
	for i := 0; i < trials; i++ {
		s := aciScenario(-22, 10, 57)
		f, c, m := runScenario(t, s, int64(300+i), "QPSK 1/2", 100)
		segs := segments16(t, f.Grid())
		cpr, err := NewReceiver(f, Config{Segments: segs})
		if err != nil {
			t.Fatal(err)
		}
		noTrack, err := NewReceiver(f, Config{Segments: segs, NoPilotTracking: true})
		if err != nil {
			t.Fatal(err)
		}
		kdeRx, err := NewReceiver(f, Config{Segments: segs, Decision: DecisionSphereKDE})
		if err != nil {
			t.Fatal(err)
		}
		for name, d := range map[string]rx.SymbolDecider{
			"std":     rx.StandardDecider{},
			"naive":   &NaiveDecider{Segments: segs},
			"oracle":  &OracleDecider{InterferenceOnly: c.InterferenceOnly, Segments: segs},
			"cpr":     cpr,
			"noTrack": noTrack,
			"kde":     kdeRx,
		} {
			errs[name] += symbolErrors(t, f, c, m, d, 15)
		}
	}
	t.Logf("ACI -22dB QPSK symbol errors: %v", errs)
	if errs["cpr"] >= errs["std"] {
		t.Fatal("CPRecycle should beat the standard receiver")
	}
	if float64(errs["cpr"]) > 1.15*float64(errs["naive"]) {
		t.Fatal("CPRecycle should not trail the naive decoder meaningfully")
	}
	if errs["oracle"] >= errs["std"] {
		t.Fatal("oracle should beat the standard receiver")
	}
	// Ablations: disabling pilot tracking or falling back to the pooled
	// KDE product should not improve on the full receiver.
	if float64(errs["noTrack"]) < 0.95*float64(errs["cpr"]) {
		t.Fatalf("pilot tracking should help: cpr %d vs noTrack %d", errs["cpr"], errs["noTrack"])
	}
	if float64(errs["kde"]) < 0.95*float64(errs["cpr"]) {
		t.Fatalf("weighted decision should beat pooled KDE: cpr %d vs kde %d", errs["cpr"], errs["kde"])
	}
}

func TestNaiveDecoderWorksAtMildInterference(t *testing.T) {
	// Fig. 5a: at SIR −10 dB the naive decoder recovers packets.
	s := aciScenario(-10, 17, 57)
	f, _, m := runScenario(t, s, 300, "QPSK 1/2", 60)
	segs := segments16(t, f.Grid())
	if !decodeWith(t, f, m, 60, &NaiveDecider{Segments: segs}) {
		t.Fatal("naive decoder should handle SIR -10 dB QPSK")
	}
}

func TestCPRecycleUnderCCI(t *testing.T) {
	// Co-channel interference: CPRecycle must never lose to the standard
	// receiver, must decode reliably at the moderate SIR where both
	// mechanisms coexist, and the oracle must show the larger headroom the
	// paper's Fig. 11 reports. (Practical CCI gains in this simulator are
	// smaller than the paper's testbed gains because
	// equal-symbol-period co-channel interference offers little
	// per-segment diversity in a clean discrete-time model.)
	const trials = 6
	stdOK, cprOK := 0, 0
	var stdErrs, cprErrs, oracleErrs int
	for i := 0; i < trials; i++ {
		s := &interference.Scenario{
			Q:       1,
			SNRdB:   10,
			Channel: channel.Indoor2Tap(),
			Interferers: []interference.Interferer{
				{CenterOffset: 0, SIRdB: 10, Channel: channel.Indoor2Tap()},
			},
		}
		f, c, m := runScenario(t, s, int64(400+i), "QPSK 1/2", 60)
		segs, err := ofdm.SegmentPlan(16, 1, 16, 2)
		if err != nil {
			t.Fatal(err)
		}
		cpr, err := NewReceiver(f, Config{Segments: segs})
		if err != nil {
			t.Fatal(err)
		}
		if decodeWith(t, f, m, 60, rx.StandardDecider{}) {
			stdOK++
		}
		if decodeWith(t, f, m, 60, cpr) {
			cprOK++
		}
		stdErrs += symbolErrors(t, f, c, m, rx.StandardDecider{}, 10)
		cprErrs += symbolErrors(t, f, c, m, cpr, 10)
		oracleErrs += symbolErrors(t, f, c, m,
			&OracleDecider{InterferenceOnly: c.InterferenceOnly, Segments: segs}, 10)
	}
	t.Logf("CCI +10dB QPSK: packets std %d/%d cpr %d/%d; symbol errors std %d cpr %d oracle %d",
		stdOK, trials, cprOK, trials, stdErrs, cprErrs, oracleErrs)
	if cprOK < stdOK {
		t.Fatalf("CPRecycle (%d) should not lose to standard (%d)", cprOK, stdOK)
	}
	if cprOK < trials-1 {
		t.Fatalf("CPRecycle only %d/%d under moderate CCI", cprOK, trials)
	}
	if cprErrs > stdErrs {
		t.Fatalf("CPRecycle symbol errors (%d) exceed standard (%d)", cprErrs, stdErrs)
	}
	if oracleErrs > cprErrs {
		t.Fatalf("oracle (%d) should lower-bound CPRecycle (%d)", oracleErrs, cprErrs)
	}
}

func TestSegmentInterferenceVariation(t *testing.T) {
	// Fig. 4b: at a band-edge subcarrier, interference power varies
	// substantially (>10 dB) across FFT segments.
	s := aciScenario(-20, 10000, 57)
	f, c, _ := runScenario(t, s, 500, "QPSK 1/2", 60)
	segs := segments16(t, f.Grid())
	start := f.DataSymbolStart(0)
	pw, err := SegmentInterferencePower(c.InterferenceOnly, c.Grid, start, segs)
	if err != nil {
		t.Fatal(err)
	}
	bin := c.Grid.Bin(26) // nearest data subcarrier to the interferer
	minP, maxP := math.Inf(1), 0.0
	for j := range segs {
		if pw[j][bin] < minP {
			minP = pw[j][bin]
		}
		if pw[j][bin] > maxP {
			maxP = pw[j][bin]
		}
	}
	if spread := dsp.DB(maxP / minP); spread < 10 {
		t.Fatalf("segment interference spread only %.1f dB", spread)
	}
}

func TestOracleSpectrumReduction(t *testing.T) {
	// Fig. 4a: within the victim band, the oracle's per-subcarrier minimum
	// is far below the standard window's interference power on average.
	s := aciScenario(-20, 10000, 57)
	f, c, _ := runScenario(t, s, 600, "QPSK 1/2", 200)
	segs := segments16(t, f.Grid())
	oracle, std, err := OracleSpectrum(c.InterferenceOnly, c.Grid, f.DataSymbolStart(0), 20, segs)
	if err != nil {
		t.Fatal(err)
	}
	var sumO, sumS float64
	for sc := -26; sc <= 26; sc++ {
		if sc == 0 {
			continue
		}
		bin := c.Grid.Bin(sc)
		sumO += oracle[bin]
		sumS += std[bin]
	}
	reduction := dsp.DB(sumS / sumO)
	t.Logf("oracle in-band interference reduction: %.1f dB", reduction)
	if reduction < 6 {
		t.Fatalf("oracle reduction only %.1f dB", reduction)
	}
}

// TestOracleSpectrumPinned pins Fig. 4a's curves bit for bit: an FNV-64a
// hash over the little-endian float64 bits of oracle[i] then std[i] for
// every bin. The value is the same with SIMD kernels and under -tags
// purego, so any change to the segment demodulation arithmetic shows here.
func TestOracleSpectrumPinned(t *testing.T) {
	s := aciScenario(-20, 10000, 57)
	f, c, _ := runScenario(t, s, 600, "QPSK 1/2", 200)
	segs := segments16(t, f.Grid())
	oracle, std, err := OracleSpectrum(c.InterferenceOnly, c.Grid, f.DataSymbolStart(0), 20, segs)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var b [8]byte
	for i := range oracle {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(oracle[i]))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(std[i]))
		h.Write(b[:])
	}
	const want = 0x9e72319aaf0468f5
	if got := h.Sum64(); got != want {
		t.Fatalf("OracleSpectrum hash %016x, want %016x", got, uint64(want))
	}
}

func TestEmptySphereFallback(t *testing.T) {
	// A microscopic radius forces the fallback path; decoding must still
	// work on a clean frame (fallback = nearest point to centroid).
	s := &interference.Scenario{Q: 1, SNRdB: 30, Channel: channel.Indoor2Tap()}
	f, _, m := runScenario(t, s, 700, "QPSK 1/2", 50)
	segs, err := ofdm.SegmentPlan(16, 1, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	cpr, err := NewReceiver(f, Config{Segments: segs, Radius: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if !decodeWith(t, f, m, 50, cpr) {
		t.Fatal("fallback decoding failed")
	}
}

func TestPerSegmentModeFunctions(t *testing.T) {
	s := aciScenario(-10, 17, 57)
	f, _, m := runScenario(t, s, 800, "16-QAM 1/2", 50)
	segs := segments16(t, f.Grid())
	cpr, err := NewReceiver(f, Config{Segments: segs, PerSegment: true, Decision: DecisionSphereKDE})
	if err != nil {
		t.Fatal(err)
	}
	if cpr.ModelFor(0) != nil {
		t.Fatal("per-segment mode should not expose a pooled model")
	}
	// Should still decode at this mild interference.
	if !decodeWith(t, f, m, 50, cpr) {
		t.Fatal("per-segment CPRecycle failed")
	}
}

func TestBandwidthSelectorsBothWork(t *testing.T) {
	s := aciScenario(-10, 12, 57)
	f, _, m := runScenario(t, s, 900, "QPSK 1/2", 50)
	segs := segments16(t, f.Grid())
	for _, sel := range []kde.BandwidthSelector{kde.Silverman, kde.LSCV} {
		cpr, err := NewReceiver(f, Config{Segments: segs, Bandwidth: sel, Decision: DecisionSphereKDE})
		if err != nil {
			t.Fatal(err)
		}
		if !decodeWith(t, f, m, 50, cpr) {
			t.Fatal("decode failed with custom bandwidth selector")
		}
	}
}

func TestSingleSegmentDegradesToStandard(t *testing.T) {
	// "Gracefully degrades to a standard OFDM receiver with one FFT
	// segment": with only the CP-skipping window, CPRecycle's decisions
	// match the standard slicer on a clean frame.
	s := &interference.Scenario{Q: 1, SNRdB: 25, Channel: channel.Indoor2Tap()}
	f, _, m := runScenario(t, s, 1000, "16-QAM 1/2", 40)
	cpr, err := NewReceiver(f, Config{Segments: []int{16}})
	if err != nil {
		t.Fatal(err)
	}
	cons := modem.New(m.Scheme)
	for k := 0; k < 3; k++ {
		a, err := cpr.DecideSymbol(f, k, cons)
		if err != nil {
			t.Fatal(err)
		}
		b, err := (rx.StandardDecider{}).DecideSymbol(f, k, cons)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("symbol %d sc %d: CPRecycle %d vs standard %d", k, i, a[i], b[i])
			}
		}
	}
}

func TestNaiveDeciderValidation(t *testing.T) {
	s := &interference.Scenario{Q: 1, SNRdB: 30}
	f, _, m := runScenario(t, s, 1100, "QPSK 1/2", 40)
	cons := modem.New(m.Scheme)
	if _, err := (&NaiveDecider{}).DecideSymbol(f, 0, cons); err == nil {
		t.Fatal("naive decoder without segments should fail")
	}
	if _, err := (&OracleDecider{}).DecideSymbol(f, 0, cons); err == nil {
		t.Fatal("oracle without segments should fail")
	}
}

func BenchmarkCPRecycleDecideSymbol(b *testing.B) {
	s := aciScenario(-20, 17, 57)
	f, _, m := runScenario(b, s, 1, "16-QAM 1/2", 100)
	q := f.Grid().NFFT / 64
	segs, err := ofdm.SegmentPlan(f.Grid().CP, q, 16, 2*q)
	if err != nil {
		b.Fatal(err)
	}
	cpr, err := NewReceiver(f, Config{Segments: segs})
	if err != nil {
		b.Fatal(err)
	}
	cons := modem.New(m.Scheme)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cpr.DecideSymbol(f, i%5, cons); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTrainAndBindReuseMatchFresh retrains one Training and rebinds
// receivers across frames on two grids, after each has decoded symbols
// and fitted KDE models on the previous frame, and requires every
// decision to match receivers built fresh on the new frame: the live
// model is reset and the KDE fit cache cleared.
func TestTrainAndBindReuseMatchFresh(t *testing.T) {
	type packet struct {
		f *rx.Frame
		m wifi.MCS
	}
	a, _, ma := runScenario(t, aciScenario(-12, 17, 57), 1200, "QPSK 1/2", 40)
	b, _, mb := runScenario(t, &interference.Scenario{Q: 1, SNRdB: 18, Channel: channel.Indoor2Tap(),
		Interferers: []interference.Interferer{{SIRdB: 8, Channel: channel.Indoor2Tap()}}}, 1201, "16-QAM 1/2", 40)
	c, _, mc := runScenario(t, aciScenario(-8, 17, 57), 1202, "QPSK 1/2", 40)
	var tr Training
	var hard, sphere Receiver
	for step, p := range []packet{{a, ma}, {b, mb}, {c, mc}, {a, ma}} {
		segs := segments16(t, p.f.Grid())
		if _, err := tr.Train(p.f, segs); err != nil {
			t.Fatal(err)
		}
		fresh, err := Train(p.f, segs)
		if err != nil {
			t.Fatal(err)
		}
		cons := consFor(p.m)
		for _, d := range []Decision{DecisionModelWeighted, DecisionSphereKDE} {
			cfg := Config{Segments: segs, Decision: d}
			reused := &hard
			if d == DecisionSphereKDE {
				reused = &sphere
			}
			if _, err := reused.Bind(p.f, &tr, cfg); err != nil {
				t.Fatal(err)
			}
			want, err := NewReceiverFrom(p.f, fresh, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < p.m.SymbolsForPSDU(40); k++ {
				got, err := reused.DecideSymbol(p.f, k, cons)
				if err != nil {
					t.Fatal(err)
				}
				exp, err := want.DecideSymbol(p.f, k, cons)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, exp) {
					t.Fatalf("step %d %v symbol %d: reused receiver decided %v, fresh %v", step, d, k, got, exp)
				}
			}
			// The lazily fitted Eq. 4 densities must be the new frame's.
			gm, wm := reused.ModelFor(3), want.ModelFor(3)
			if g, w := gm.LogDensity(0.2, 0.5), wm.LogDensity(0.2, 0.5); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("step %d %v: reused receiver's density %v, fresh %v", step, d, g, w)
			}
		}
	}
}
