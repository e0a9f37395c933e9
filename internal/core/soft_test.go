package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/modem"
	"repro/internal/rx"
	"repro/internal/wifi"
)

func consFor(m wifi.MCS) *modem.Constellation { return modem.New(m.Scheme) }

// TestCPRecycleSoftMatchesHardDecisions drives a hard and a soft
// receiver over every DATA symbol of an ACI frame at each constellation.
// Decisions and the §4.3 live scales after each symbol must agree bit for
// bit, and the soft confidences are pinned to a hash of their bits, so
// the one decision kernel behind both paths can change neither. The
// small-radius 16-QAM case pushes centroids out of their spheres, so the
// empty-sphere (conf 0) and single-candidate (conf 1) rules are pinned
// too.
func TestCPRecycleSoftMatchesHardDecisions(t *testing.T) {
	for _, c := range []struct {
		mcs    string
		radius float64 // × the constellation's minimum distance; 0 = default
		hash   uint64  // FNV-64a of the confidences' bits, recorded before the soft kernel was folded into the hard one
	}{
		{"BPSK 1/2", 0, 0x106963c93a72b2a9},
		{"QPSK 1/2", 0, 0xbb3fbe9e785229ae},
		{"16-QAM 1/2", 0, 0x7bf79df861f49ff0},
		{"64-QAM 2/3", 0, 0xa1bc115c87359ab2},
		{"16-QAM 1/2", 0.6, 0xaaa43f2c8a0353d8},
	} {
		s := aciScenario(-15, 17, 57)
		f, _, m := runScenario(t, s, 900, c.mcs, 60)
		segs := segments16(t, f.Grid())
		cons := consFor(m)
		cfg := Config{Segments: segs, Radius: c.radius * cons.MinDistance()}
		hardRx, err := NewReceiver(f, cfg)
		if err != nil {
			t.Fatal(err)
		}
		softRx, err := NewReceiver(f, cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var buf [8]byte
		var erased, sole int
		for k := 0; k < m.SymbolsForPSDU(60); k++ {
			hard, err := hardRx.DecideSymbol(f, k, cons)
			if err != nil {
				t.Fatal(err)
			}
			soft, conf, err := softRx.DecideSymbolSoft(f, k, cons)
			if err != nil {
				t.Fatal(err)
			}
			for i := range hard {
				if hard[i] != soft[i] {
					t.Fatalf("%s symbol %d sc %d: hard %d vs soft %d", c.mcs, k, i, hard[i], soft[i])
				}
				if conf[i] < 0 {
					t.Fatalf("%s symbol %d sc %d: negative confidence %v", c.mcs, k, i, conf[i])
				}
				switch conf[i] {
				case 0:
					erased++
				case 1:
					sole++
				}
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(conf[i]))
				h.Write(buf[:])
			}
			for j := range hardRx.live {
				for i, v := range hardRx.live[j] {
					if math.Float64bits(softRx.live[j][i]) != math.Float64bits(v) {
						t.Fatalf("%s symbol %d: live scale [%d][%d] hard %v vs soft %v", c.mcs, k, j, i, v, softRx.live[j][i])
					}
				}
			}
		}
		t.Logf("%s radius %v: %d erased, %d sole-candidate, conf hash %#x", c.mcs, c.radius, erased, sole, h.Sum64())
		if c.radius != 0 && (erased == 0 || sole == 0) {
			t.Fatalf("%s radius %v: %d erased, %d sole-candidate; want both cases", c.mcs, c.radius, erased, sole)
		}
		if got := h.Sum64(); got != c.hash {
			t.Errorf("%s radius %v: confidence hash %#x, want %#x", c.mcs, c.radius, got, c.hash)
		}
	}
}

func TestCPRecycleSoftDecodesUnderACI(t *testing.T) {
	var hardOK, softOK int
	const trials = 8
	for i := 0; i < trials; i++ {
		s := aciScenario(-15, 17, 57)
		f, _, m := runScenario(t, s, int64(950+i), "16-QAM 1/2", 100)
		segs := segments16(t, f.Grid())
		h, err := NewReceiver(f, Config{Segments: segs})
		if err != nil {
			t.Fatal(err)
		}
		rh, err := rx.DecodeData(f, m, 100, h)
		if err != nil {
			t.Fatal(err)
		}
		if rh.FCSOK {
			hardOK++
		}
		sRx, err := NewReceiver(f, Config{Segments: segs})
		if err != nil {
			t.Fatal(err)
		}
		rs, err := rx.DecodeDataSoft(f, m, 100, sRx)
		if err != nil {
			t.Fatal(err)
		}
		if rs.FCSOK {
			softOK++
		}
	}
	t.Logf("CPRecycle ACI -15dB 16-QAM: hard %d/%d, soft %d/%d", hardOK, trials, softOK, trials)
	if softOK < hardOK {
		t.Fatalf("soft (%d) must not lose to hard (%d)", softOK, hardOK)
	}
}

func TestSphereKDESoftUnitConfidence(t *testing.T) {
	s := aciScenario(-10, 17, 57)
	f, _, m := runScenario(t, s, 990, "QPSK 1/2", 50)
	segs := segments16(t, f.Grid())
	r, err := NewReceiver(f, Config{Segments: segs, Decision: DecisionSphereKDE})
	if err != nil {
		t.Fatal(err)
	}
	_, conf, err := r.DecideSymbolSoft(f, 0, consFor(m))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range conf {
		if c != 1 {
			t.Fatalf("sphere-KDE confidence %v, want 1", c)
		}
	}
}
