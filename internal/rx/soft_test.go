package rx

import (
	"bytes"
	"math"
	"math/cmplx"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/channel"
	"repro/internal/modem"
	"repro/internal/wifi"
)

// TestStandardSoftMatchesHardDecisions compares the standard hard and
// soft decisions of the same frame. Both land in the Frame's one
// decision slot, so the hard decisions are copied before the soft call.
func TestStandardSoftMatchesHardDecisions(t *testing.T) {
	f, p, _ := buildFrame(t, 30, "16-QAM 1/2", 80, channel.Indoor2Tap(), 20, 5)
	cons := modem.New(p.Cfg.MCS.Scheme)
	for k := 0; k < 3; k++ {
		hard, err := (StandardDecider{}).DecideSymbol(f, k, cons)
		if err != nil {
			t.Fatal(err)
		}
		hard = slices.Clone(hard)
		soft, conf, err := (StandardDecider{}).DecideSymbolSoft(f, k, cons)
		if err != nil {
			t.Fatal(err)
		}
		for i := range hard {
			if hard[i] != soft[i] {
				t.Fatalf("symbol %d sc %d: hard %d vs soft %d", k, i, hard[i], soft[i])
			}
			if conf[i] < 0 {
				t.Fatalf("negative confidence %v", conf[i])
			}
		}
	}
}

// fullScanMargin is the standard soft margin as first written: the
// runner-up distance is the minimum over every other lattice point.
func fullScanMargin(v complex128, cons *modem.Constellation) (int, float64) {
	best := cons.Nearest(v)
	d1 := cmplx.Abs(v - cons.Point(best))
	d2 := d1
	first := true
	for li, p := range cons.Points() {
		if li == best {
			continue
		}
		d := cmplx.Abs(v - p)
		if first || d < d2 {
			d2 = d
			first = false
		}
	}
	return best, (d2 - d1) / cons.MinDistance()
}

// TestStandardMarginMatchesFullScan pins the edge-neighbour runner-up
// search of the standard soft decision to the full lattice scan, bit for
// bit, at every scheme: random points over and beyond the constellation,
// every lattice point, cell edge midpoint and cell corner (exact ties
// between two or four points), and points far outside the outer ring.
func TestStandardMarginMatchesFullScan(t *testing.T) {
	r := rand.New(rand.NewPCG(19, 1))
	for _, s := range []modem.Scheme{modem.BPSK, modem.QPSK, modem.QAM16, modem.QAM64, modem.QAM256} {
		cons := modem.New(s)
		pts := cons.Points()
		var vs []complex128
		for range 20000 {
			vs = append(vs, complex(3*r.NormFloat64(), 3*r.NormFloat64()))
			vs = append(vs, complex(0.1*r.NormFloat64(), 0.1*r.NormFloat64())+pts[r.IntN(len(pts))])
		}
		// Lattice points, midpoints of every pair (cell edges for
		// neighbours, corners for diagonals) and points pushed outward.
		for i, p := range pts {
			vs = append(vs, p, 2*p, 10*p, 1e6*p, p+complex(cons.MinDistance()/2, 0))
			for _, q := range pts[i+1:] {
				vs = append(vs, (p+q)/2)
			}
		}
		for _, v := range vs {
			gb, gc := standardMargin(v, cons)
			wb, wc := fullScanMargin(v, cons)
			if gb != wb || math.Float64bits(gc) != math.Float64bits(wc) {
				t.Fatalf("%v at %v: neighbour search (%d, %v), full scan (%d, %v)", s, v, gb, gc, wb, wc)
			}
		}
	}
}

func TestDecodeDataSoftCleanChannel(t *testing.T) {
	for _, name := range []string{"QPSK 1/2", "64-QAM 2/3"} {
		f, _, psdu := buildFrame(t, 31, name, 100, channel.Indoor2Tap(), 10000, 5)
		mcs, _ := wifi.MCSByName(name)
		res, err := DecodeDataSoft(f, mcs, len(psdu), StandardDecider{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.FCSOK || !bytes.Equal(res.PSDU, psdu) {
			t.Fatalf("%s: clean soft decode failed", name)
		}
	}
}

func TestDecodeDataSoftAtLeastAsGoodAsHard(t *testing.T) {
	// Over noisy packets near the MCS cliff, soft decoding must not lose
	// to hard decoding.
	mcs, _ := wifi.MCSByName("16-QAM 1/2")
	hardOK, softOK := 0, 0
	const trials = 20
	for i := 0; i < trials; i++ {
		f, _, psdu := buildFrame(t, int64(200+i), "16-QAM 1/2", 150, channel.Indoor2Tap(), 14.5, 5)
		rh, err := DecodeData(f, mcs, len(psdu), StandardDecider{})
		if err != nil {
			t.Fatal(err)
		}
		if rh.FCSOK {
			hardOK++
		}
		rs, err := DecodeDataSoft(f, mcs, len(psdu), StandardDecider{})
		if err != nil {
			t.Fatal(err)
		}
		if rs.FCSOK {
			softOK++
		}
	}
	t.Logf("near-cliff 16-QAM at 14.5 dB: hard %d/%d, soft %d/%d", hardOK, trials, softOK, trials)
	if softOK < hardOK {
		t.Fatalf("soft (%d) must not lose to hard (%d)", softOK, hardOK)
	}
}

func TestDecodeDataSoftFallsBackForHardDecider(t *testing.T) {
	// A decider without the soft interface silently uses the hard path.
	f, _, psdu := buildFrame(t, 32, "QPSK 1/2", 60, channel.Indoor2Tap(), 25, 5)
	mcs, _ := wifi.MCSByName("QPSK 1/2")
	type hardOnly struct{ SymbolDecider }
	res, err := DecodeDataSoft(f, mcs, len(psdu), hardOnly{StandardDecider{}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FCSOK || !bytes.Equal(res.PSDU, psdu) {
		t.Fatal("fallback decode failed")
	}
}

func TestNormalizeConfidences(t *testing.T) {
	var sc decodeScratch
	w := sc.normalize([]float64{0, 1, 2, 100})
	if w[0] != 0 {
		t.Fatal("zero stays zero")
	}
	if w[3] != 4 {
		t.Fatalf("clipping failed: %v", w[3])
	}
	// All-zero input must not divide by zero.
	z := sc.normalize([]float64{0, 0, 0})
	for _, v := range z {
		if v != 0 {
			t.Fatal("all-zero confidences should stay zero")
		}
	}
}

// poisonSoftScratch fills every buffer of sc, to full capacity, with NaN
// (0xff for the bit buffers), so a decode that read stale scratch would
// show it.
func poisonSoftScratch(sc *decodeScratch) {
	for _, buf := range [][]float64{sc.llrs, sc.blk, sc.sorted, sc.w} {
		buf = buf[:cap(buf)]
		for i := range buf {
			buf[i] = math.NaN()
		}
	}
	for _, buf := range [][]byte{sc.coded, sc.bits} {
		buf = buf[:cap(buf)]
		for i := range buf {
			buf[i] = 0xff
		}
	}
}

// TestSoftScratchReuse checks that reused soft-decode scratch cannot leak
// into results. Per symbol, the weights written through scratch last used
// at another MCS and then NaN-filled must equal those written through
// fresh scratch, bit for bit. Per packet, decoding long, short and long
// again through the pool, NaN-filling the pooled scratch before each,
// must reproduce each frame's first decode.
func TestSoftScratchReuse(t *testing.T) {
	type pkt struct {
		f    *Frame
		mcs  wifi.MCS
		len  int
		want Result
	}
	var pkts []pkt
	for i, c := range []struct {
		name string
		len  int
	}{{"64-QAM 2/3", 400}, {"QPSK 1/2", 40}} {
		f, _, _ := buildFrame(t, int64(40+i), c.name, c.len, channel.Indoor2Tap(), 16, 5)
		mcs, _ := wifi.MCSByName(c.name)
		want, err := DecodeDataSoft(f, mcs, c.len, StandardDecider{})
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, pkt{f, mcs, c.len, want})
	}
	used := new(decodeScratch)
	for _, p := range append(pkts, pkts[0]) {
		cons := modem.New(p.mcs.Scheme)
		il, err := wifi.DataInterleaver(p.mcs)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 3; k++ {
			want := make([]float64, p.mcs.Ncbps)
			got := make([]float64, p.mcs.Ncbps)
			if err := softSymbolLLRs(p.f, StandardDecider{}, k, cons, il, new(decodeScratch), want); err != nil {
				t.Fatal(err)
			}
			poisonSoftScratch(used)
			if err := softSymbolLLRs(p.f, StandardDecider{}, k, cons, il, used, got); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s symbol %d bit %d: reused scratch gives %v, fresh %v", p.mcs.Name, k, i, got[i], want[i])
				}
			}
		}
	}
	for i, p := range []pkt{pkts[0], pkts[1], pkts[0]} {
		sc := decodePool.Get().(*decodeScratch)
		poisonSoftScratch(sc)
		decodePool.Put(sc)
		got, err := DecodeDataSoft(p.f, p.mcs, p.len, StandardDecider{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.PSDU, p.want.PSDU) || got.FCSOK != p.want.FCSOK || got.ScramblerSeed != p.want.ScramblerSeed {
			t.Fatalf("decode %d (%s) through poisoned pooled scratch differs", i, p.mcs.Name)
		}
	}
}
