package rx

import (
	"bytes"
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"repro/internal/channel"
	"repro/internal/coding"
	"repro/internal/dsp"
	"repro/internal/modem"
	"repro/internal/ofdm"
	"repro/internal/wifi"
)

// buildFrame transmits a PPDU through the given channel/noise and returns
// the frame view plus ground truth.
func buildFrame(t testing.TB, seed int64, mcsName string, psduLen int, ch *channel.Multipath, snrDB float64, pad int) (*Frame, *wifi.PPDU, []byte) {
	t.Helper()
	r := dsp.NewRand(seed)
	mcs, err := wifi.MCSByName(mcsName)
	if err != nil {
		t.Fatal(err)
	}
	cfg := wifi.TxConfig{Grid: ofdm.Native80211Grid(), MCS: mcs, Gain: 1}
	psdu := wifi.BuildPSDU(r.Bytes(psduLen - 4))
	p, err := wifi.BuildPPDU(cfg, psdu)
	if err != nil {
		t.Fatal(err)
	}
	stream := make([]complex128, pad+len(p.Samples)+pad)
	dsp.AddInto(stream, p.Samples, pad)
	if ch != nil {
		stream = ch.Apply(stream)
	}
	if snrDB < 1000 {
		sigPower := dsp.Power(p.Samples)
		channel.AWGN(r, stream, channel.NoisePowerForSNR(sigPower, snrDB))
	}
	f, err := NewFrame(cfg.Grid, stream, pad)
	if err != nil {
		t.Fatal(err)
	}
	return f, p, psdu
}

func TestFrameChannelEstimateClean(t *testing.T) {
	f, _, _ := buildFrame(t, 1, "QPSK 1/2", 50, nil, 10000, 10)
	for sc := -26; sc <= 26; sc++ {
		if sc == 0 {
			continue
		}
		if h := f.ChannelAt(sc); cmplx.Abs(h-1) > 1e-6 {
			t.Fatalf("H[%d] = %v, want 1", sc, h)
		}
	}
}

func TestFrameChannelEstimateMultipath(t *testing.T) {
	// The estimator smooths Ĥ across ±2 subcarriers (robustness against
	// interference bursts in frequency), which biases the estimate by a
	// few percent where the channel ripples — well below the operating
	// noise floor. Verify the estimate lands within that budget.
	ch := channel.Indoor2Tap()
	f, _, _ := buildFrame(t, 2, "QPSK 1/2", 50, ch, 10000, 10)
	want := ch.FrequencyResponse(64)
	for sc := -26; sc <= 26; sc++ {
		if sc == 0 {
			continue
		}
		bin := f.Grid().Bin(sc)
		if d := cmplx.Abs(f.ChannelAt(sc) - want[bin]); d > 0.06*cmplx.Abs(want[bin]) {
			t.Fatalf("H[%d] = %v, want %v (dev %.3f)", sc, f.ChannelAt(sc), want[bin], d)
		}
	}
}

func TestObserveSymbolRecoversConstellation(t *testing.T) {
	f, p, _ := buildFrame(t, 3, "16-QAM 1/2", 80, channel.Indoor2Tap(), 10000, 7)
	cons := modem.New(p.Cfg.MCS.Scheme)
	for k := 0; k < 3; k++ {
		obs, err := f.ObserveSymbol(k, f.Grid().CP)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range obs.Data {
			idx := cons.Nearest(v)
			// Within a tenth of the decision distance: limited only by
			// the channel smoothing bias, not noise.
			if cmplx.Abs(v-cons.Point(idx)) > 0.2*cons.MinDistance() {
				t.Fatalf("symbol %d sc %d: %v not on lattice", k, i, v)
			}
		}
	}
}

func TestObserveSymbolSegmentsAgreeWithoutInterference(t *testing.T) {
	// Proposition 3.1 end-to-end: all ISI-free segments yield the same
	// equalised values (channel delay spread 1 → offsets ≥ 1 are ISI-free).
	f, _, _ := buildFrame(t, 4, "QPSK 1/2", 60, channel.Indoor2Tap(), 10000, 5)
	ref, err := f.ObserveSymbol(0, f.Grid().CP)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{1, 4, 8, 12, 15} {
		obs, err := f.ObserveSymbol(0, off)
		if err != nil {
			t.Fatal(err)
		}
		if d := dsp.MaxAbsDiff(ref.Data, obs.Data); d > 1e-5 {
			t.Fatalf("segment %d deviates by %g", off, d)
		}
	}
}

func TestObservePreambleMatchesLTF(t *testing.T) {
	f, _, _ := buildFrame(t, 5, "QPSK 1/2", 60, channel.Indoor2Tap(), 10000, 5)
	pre, err := f.ObservePreambleAll([]int{8})
	if err != nil {
		t.Fatal(err)
	}
	obs := pre[0]
	scs := ofdm.DataSubcarriers()
	for s := 0; s < 2; s++ {
		for j, sc := range scs {
			want := ofdm.LTFValue(sc)
			if cmplx.Abs(obs[s][j]-want) > 0.08 {
				t.Fatalf("LTF %d sc %d: got %v want %v", s, sc, obs[s][j], want)
			}
		}
	}
}

func TestNoiseEstimateTracksSNR(t *testing.T) {
	f10, _, _ := buildFrame(t, 6, "QPSK 1/2", 60, nil, 10, 5)
	f25, _, _ := buildFrame(t, 6, "QPSK 1/2", 60, nil, 25, 5)
	n10, err := f10.NoiseEstimate()
	if err != nil {
		t.Fatal(err)
	}
	n25, err := f25.NoiseEstimate()
	if err != nil {
		t.Fatal(err)
	}
	if n10 < n25*10 {
		t.Fatalf("noise estimates not ordered: 10dB→%v 25dB→%v", n10, n25)
	}
}

func TestDecodeDataCleanAllMCS(t *testing.T) {
	for _, mcs := range wifi.StandardMCS() {
		f, _, psdu := buildFrame(t, 7, mcs.Name, 100, channel.Indoor2Tap(), 10000, 5)
		res, err := DecodeData(f, mcs, len(psdu), StandardDecider{})
		if err != nil {
			t.Fatalf("%s: %v", mcs.Name, err)
		}
		if !res.FCSOK || !bytes.Equal(res.PSDU, psdu) {
			t.Fatalf("%s: clean decode failed", mcs.Name)
		}
	}
}

func TestDecodeDataAtOperatingSNR(t *testing.T) {
	// Each paper MCS at its calibrated operating SNR must decode reliably.
	cases := []struct {
		name string
		snr  float64
	}{
		{"QPSK 1/2", 10}, {"16-QAM 1/2", 17}, {"64-QAM 2/3", 25},
	}
	for _, c := range cases {
		ok := 0
		const trials = 20
		for i := 0; i < trials; i++ {
			f, _, psdu := buildFrame(t, int64(100+i), c.name, 100, channel.Indoor2Tap(), c.snr, 5)
			mcs, _ := wifi.MCSByName(c.name)
			res, err := DecodeData(f, mcs, len(psdu), StandardDecider{})
			if err != nil {
				t.Fatal(err)
			}
			if res.FCSOK && bytes.Equal(res.PSDU, psdu) {
				ok++
			}
		}
		if ok < trials*9/10 {
			t.Fatalf("%s at %v dB: only %d/%d packets", c.name, c.snr, ok, trials)
		}
	}
}

func TestDecodeDataRecoversScramblerSeed(t *testing.T) {
	r := dsp.NewRand(8)
	mcs, _ := wifi.MCSByName("QPSK 1/2")
	for _, seed := range []uint8{0x5D, 0x01, 0x7F, 0x2A} {
		cfg := wifi.TxConfig{Grid: ofdm.Native80211Grid(), MCS: mcs, ScramblerSeed: seed, Gain: 1}
		psdu := wifi.BuildPSDU(r.Bytes(40))
		p, err := wifi.BuildPPDU(cfg, psdu)
		if err != nil {
			t.Fatal(err)
		}
		f, err := NewFrame(cfg.Grid, p.Samples, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := DecodeData(f, mcs, len(psdu), StandardDecider{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.FCSOK || res.ScramblerSeed != seed {
			t.Fatalf("seed %#x: FCS=%v recovered=%#x", seed, res.FCSOK, res.ScramblerSeed)
		}
	}
}

func TestRecoverScramblerSeedDirect(t *testing.T) {
	for _, seed := range []uint8{1, 0x5D, 0x7F} {
		seq := coding.NewScrambler(seed).Sequence(7)
		if got := RecoverScramblerSeed(seq); got != seed {
			t.Fatalf("seed %#x recovered as %#x", seed, got)
		}
	}
	if RecoverScramblerSeed([]byte{1}) != coding.DefaultScramblerSeed {
		t.Fatal("short input should fall back to default")
	}
}

func TestDecodeSignal(t *testing.T) {
	f, p, _ := buildFrame(t, 9, "64-QAM 2/3", 120, channel.Indoor2Tap(), 30, 5)
	mcs, n, err := DecodeSignal(f)
	if err != nil {
		t.Fatal(err)
	}
	if mcs.Name != "64-QAM 2/3" || n != p.PSDULen {
		t.Fatalf("SIGNAL decoded as %s/%d", mcs.Name, n)
	}
}

func TestDecodeFrameSelfContained(t *testing.T) {
	f, _, psdu := buildFrame(t, 10, "16-QAM 1/2", 90, channel.Indoor2Tap(), 25, 5)
	res, mcs, err := DecodeFrame(f, StandardDecider{})
	if err != nil {
		t.Fatal(err)
	}
	if mcs.Name != "16-QAM 1/2" || !res.FCSOK || !bytes.Equal(res.PSDU, psdu) {
		t.Fatal("DecodeFrame failed")
	}
}

func TestSynchronizeFindsFrame(t *testing.T) {
	for _, pad := range []int{50, 333, 1000} {
		f, _, _ := buildFrame(t, int64(11+pad), "QPSK 1/2", 60, channel.Indoor2Tap(), 20, pad)
		res, err := Synchronize(f.Samples(), f.Grid())
		if err != nil {
			t.Fatalf("pad %d: %v", pad, err)
		}
		if d := res.FrameStart - pad; d < -2 || d > 2 {
			t.Fatalf("pad %d: frame start %d (error %d)", pad, res.FrameStart, d)
		}
		if res.Metric < 0.8 {
			t.Fatalf("pad %d: weak metric %v", pad, res.Metric)
		}
	}
}

func TestSynchronizeEstimatesCFO(t *testing.T) {
	f, _, _ := buildFrame(t, 12, "QPSK 1/2", 60, nil, 30, 100)
	stream := append([]complex128{}, f.Samples()...)
	const trueCFO = 0.13
	channel.ApplyCFO(stream, trueCFO, 64, 0)
	res, err := Synchronize(stream, f.Grid())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.CFO-trueCFO) > 0.02 {
		t.Fatalf("CFO estimate %v, want %v", res.CFO, trueCFO)
	}
	// And correcting it restores decodability.
	CorrectCFO(stream, res.CFO, f.Grid())
	f2, err := NewFrame(f.Grid(), stream, res.FrameStart)
	if err != nil {
		t.Fatal(err)
	}
	mcs, _ := wifi.MCSByName("QPSK 1/2")
	resD, err := DecodeData(f2, mcs, 60, StandardDecider{})
	if err != nil {
		t.Fatal(err)
	}
	if !resD.FCSOK {
		t.Fatal("decode after CFO correction failed")
	}
}

func TestSynchronizeRejectsNoise(t *testing.T) {
	r := dsp.NewRand(13)
	noise := r.CNVector(2000, 1)
	if _, err := Synchronize(noise, ofdm.Native80211Grid()); err == nil {
		t.Fatal("pure noise should not synchronize")
	}
	if _, err := Synchronize(make([]complex128, 10), ofdm.Native80211Grid()); err == nil {
		t.Fatal("short input should fail")
	}
}

func TestSynchronizeCFOProperty(t *testing.T) {
	f, _, _ := buildFrame(t, 14, "QPSK 1/2", 40, nil, 35, 80)
	base := f.Samples()
	fn := func(seed int64) bool {
		r := dsp.NewRand(seed)
		cfo := (r.Float64() - 0.5) * 0.4 // ±0.2 subcarrier spacings
		stream := append([]complex128{}, base...)
		channel.ApplyCFO(stream, cfo, 64, 0)
		res, err := Synchronize(stream, ofdm.Native80211Grid())
		if err != nil {
			return false
		}
		return math.Abs(res.CFO-cfo) < 0.03
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestISIFreeDetect(t *testing.T) {
	// Channel with delay spread d: offsets < d are ISI-affected. The
	// detector should return approximately d.
	r := dsp.NewRand(15)
	for _, d := range []int{0, 2, 5} {
		taps := make([]complex128, d+1)
		taps[0] = 1
		if d > 0 {
			taps[d] = complex(0.6, 0.2) // strong echo so ISI is detectable
		}
		ch := channel.NewMultipath(taps)
		f, p, _ := buildFrame(t, int64(16+d), "QPSK 1/2", 400, ch, 30, 5)
		var starts []int
		for k := 0; k < p.NumDataSymbols; k++ {
			starts = append(starts, f.DataSymbolStart(k))
		}
		got := ISIFreeDetect(f.Samples(), starts, f.Grid(), 0.92)
		if got < d || got > d+2 {
			t.Fatalf("delay %d: detected ISI-free offset %d", d, got)
		}
	}
	_ = r
}

func TestObserveSegmentsBatch(t *testing.T) {
	f, _, _ := buildFrame(t, 17, "QPSK 1/2", 50, nil, 10000, 5)
	segs, err := ofdm.SegmentPlan(16, 1, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	obs, err := f.ObserveSegments(0, segs)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 4 {
		t.Fatalf("got %d observations", len(obs))
	}
	for i := 1; i < len(obs); i++ {
		if dsp.MaxAbsDiff(obs[0].Data, obs[i].Data) > 1e-6 {
			t.Fatal("clean segments should agree")
		}
	}
}

func TestNewFrameErrors(t *testing.T) {
	if _, err := NewFrame(ofdm.Grid{NFFT: 48}, make([]complex128, 100), 0); err == nil {
		t.Fatal("bad grid should fail")
	}
	if _, err := NewFrame(ofdm.Native80211Grid(), make([]complex128, 10), 0); err == nil {
		t.Fatal("short samples should fail")
	}
}

func BenchmarkDecodeData400BQPSK(b *testing.B) {
	f, _, psdu := buildFrame(b, 1, "QPSK 1/2", 400, channel.Indoor2Tap(), 15, 5)
	mcs, _ := wifi.MCSByName("QPSK 1/2")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeData(f, mcs, len(psdu), StandardDecider{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFrameBindMatchesNewFrame re-binds one Frame to packets on the
// native and a 4× composite grid in turn and requires the channel
// estimate, the noise estimate, multi-segment and preamble observations
// and the standard soft decisions to match a fresh NewFrame bit for bit
// after every Bind.
func TestFrameBindMatchesNewFrame(t *testing.T) {
	type packet struct {
		g       ofdm.Grid
		samples []complex128
		start   int
	}
	var pkts []packet
	for i, snr := range []float64{20, 12} {
		f, _, _ := buildFrame(t, int64(70+i), "16-QAM 1/2", 60, channel.Indoor2Tap(), snr, 5)
		pkts = append(pkts, packet{f.Grid(), f.Samples(), f.Start()})
	}
	wide := ofdm.WideGrid(256, 64, 4, 64)
	mcs, _ := wifi.MCSByName("16-QAM 1/2")
	r := dsp.NewRand(72)
	p, err := wifi.BuildPPDU(wifi.TxConfig{Grid: wide, MCS: mcs, Gain: 1}, wifi.BuildPSDU(r.Bytes(56)))
	if err != nil {
		t.Fatal(err)
	}
	stream := make([]complex128, len(p.Samples)+40)
	dsp.AddInto(stream, p.Samples, 20)
	channel.AWGN(r, stream, channel.NoisePowerForSNR(dsp.Power(p.Samples), 18))
	pkts = append(pkts, packet{wide, stream, 20})

	cons := modem.New(mcs.Scheme)
	var bound Frame
	for step, k := range []int{0, 2, 1, 0, 2, 2, 1} {
		pk := pkts[k]
		got, err := bound.Bind(pk.g, pk.samples, pk.start)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewFrame(pk.g, pk.samples, pk.start)
		if err != nil {
			t.Fatal(err)
		}
		q := pk.g.NFFT / 64
		segs, err := ofdm.SegmentPlan(pk.g.CP, q, 8, 2*q)
		if err != nil {
			t.Fatal(err)
		}
		same := func(what string, a, b []complex128) {
			t.Helper()
			for i := range b {
				if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) || math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
					t.Fatalf("step %d (packet %d): %s [%d] %v, fresh frame %v", step, k, what, i, a[i], b[i])
				}
			}
		}
		same("channel estimate", got.ChannelEstimate(), want.ChannelEstimate())
		gn, _ := got.NoiseEstimate()
		wn, _ := want.NoiseEstimate()
		if math.Float64bits(gn) != math.Float64bits(wn) {
			t.Fatalf("step %d: noise estimate %v, fresh frame %v", step, gn, wn)
		}
		gp, err := got.ObservePreambleAll(segs)
		if err != nil {
			t.Fatal(err)
		}
		wp, _ := want.ObservePreambleAll(segs)
		for j := range wp {
			same("preamble observation", gp[j][0], wp[j][0])
			same("preamble observation", gp[j][1], wp[j][1])
		}
		for sym := 0; sym < 3; sym++ {
			gs, err := got.ObserveSegments(sym, segs)
			if err != nil {
				t.Fatal(err)
			}
			ws, _ := want.ObserveSegments(sym, segs)
			for j := range ws {
				same("segment observation", gs[j].Data, ws[j].Data)
			}
			gi, gc, _ := StandardDecider{}.DecideSymbolSoft(got, sym, cons)
			wi, wc, _ := StandardDecider{}.DecideSymbolSoft(want, sym, cons)
			for i := range wi {
				if gi[i] != wi[i] || math.Float64bits(gc[i]) != math.Float64bits(wc[i]) {
					t.Fatalf("step %d symbol %d sc %d: decision (%d, %v), fresh frame (%d, %v)", step, sym, i, gi[i], gc[i], wi[i], wc[i])
				}
			}
		}
	}
}
