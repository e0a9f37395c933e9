package rx

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/channel"
	"repro/internal/dsp"
	"repro/internal/modem"
	"repro/internal/ofdm"
	"repro/internal/wifi"
)

// parallelTestFrame builds a decodable noisy frame plus its transmitted
// PSDU and MCS.
func parallelTestFrame(t *testing.T, snrDB float64) (*Frame, wifi.MCS, []byte) {
	t.Helper()
	g := ofdm.WideGrid(64, 16, 2, 32)
	m, err := wifi.MCSByName("QPSK 1/2")
	if err != nil {
		t.Fatal(err)
	}
	r := dsp.NewRand(71)
	psdu := wifi.BuildPSDU(r.Bytes(96))
	p, err := wifi.BuildPPDU(wifi.TxConfig{Grid: g, MCS: m, Gain: 1}, psdu)
	if err != nil {
		t.Fatal(err)
	}
	samples := make([]complex128, len(p.Samples)+120)
	copy(samples[60:], p.Samples)
	channel.AWGN(r, samples, channel.NoisePowerForSNR(dsp.Power(p.Samples), snrDB))
	f, err := NewFrame(g, samples, 60)
	if err != nil {
		t.Fatal(err)
	}
	return f, m, psdu
}

// forkRefuser is a soft decider whose ForkDecider refuses, forcing the
// serial fallback.
type forkRefuser struct{ StandardDecider }

func (forkRefuser) ForkDecider() (SymbolDecider, bool) { return nil, false }

// countingDecider counts DecideSymbol invocations. It deliberately does
// NOT implement ParallelDecider (no embedding, which would promote
// StandardDecider.ForkDecider) nor SoftSymbolDecider, so the decode must
// run serially and hard.
type countingDecider struct {
	std   StandardDecider
	calls int
}

func (c *countingDecider) DecideSymbol(f *Frame, symIdx int, cons *modem.Constellation) ([]int, error) {
	c.calls++
	return c.std.DecideSymbol(f, symIdx, cons)
}

// hardOnlyDecider implements ParallelDecider but not SoftSymbolDecider,
// so a soft decode of it must run as the hard parallel decode.
type hardOnlyDecider struct{}

func (hardOnlyDecider) DecideSymbol(f *Frame, symIdx int, cons *modem.Constellation) ([]int, error) {
	return StandardDecider{}.DecideSymbol(f, symIdx, cons)
}
func (d hardOnlyDecider) ForkDecider() (SymbolDecider, bool) { return d, true }

// softForkLoser forks successfully but its fork is hard-only, so a soft
// decode must fall back to serial soft decoding rather than silently
// dropping the confidences.
type softForkLoser struct{ StandardDecider }

func (softForkLoser) ForkDecider() (SymbolDecider, bool) { return hardOnlyDecider{}, true }

// checkParallelMatchesSerial pins the parallel decode (soft or hard) to
// the serial one bit for bit across worker counts, including counts that
// exceed the symbol count. With fallbacks false it runs the standard
// decider; with fallbacks true it runs the deciders that exercise every
// fallback: one that refuses to fork, one that is not a ParallelDecider
// (which must see every symbol, serially), one without the soft
// interface, and one whose forks lose it. A soft decode of a decider
// without the soft interface must match the hard decode. The low-SNR
// frame makes some symbols carry bit errors and some confidences
// genuinely informative, so the merge is checked on streams that change
// the trellis, not just on a clean packet.
func checkParallelMatchesSerial(t *testing.T, soft, fallbacks bool) {
	t.Helper()
	decode := DecodeDataParallel
	if soft {
		decode = DecodeDataSoftParallel
	}
	for _, snr := range []float64{30, 4} {
		f, m, _ := parallelTestFrame(t, snr)
		nSyms := m.SymbolsForPSDU(100)
		wantHard, err := DecodeData(f, m, 100, StandardDecider{})
		if err != nil {
			t.Fatal(err)
		}
		wantSoft, err := DecodeDataSoft(f, m, 100, StandardDecider{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, 7, 1000} {
			counter := &countingDecider{}
			for _, c := range []struct {
				name     string
				decider  SymbolDecider
				soft     bool // decodes soft when asked to
				fallback bool
			}{
				{"standard", StandardDecider{}, true, false},
				{"fork-refuser", forkRefuser{}, true, true},
				{"non-parallel counter", counter, false, true},
				{"hard-only", hardOnlyDecider{}, false, true},
				{"soft-fork-loser", softForkLoser{}, true, true},
			} {
				if c.fallback != fallbacks {
					continue
				}
				want := wantHard
				if soft && c.soft {
					want = wantSoft
				}
				got, err := decode(f, m, 100, c.decider, workers)
				if err != nil {
					t.Fatalf("snr=%v soft=%v workers=%d %s: %v", snr, soft, workers, c.name, err)
				}
				if !bytes.Equal(got.PSDU, want.PSDU) || got.FCSOK != want.FCSOK || got.ScramblerSeed != want.ScramblerSeed {
					t.Fatalf("snr=%v soft=%v workers=%d %s: decode diverged from serial", snr, soft, workers, c.name)
				}
			}
			if fallbacks && counter.calls != nSyms {
				t.Fatalf("snr=%v soft=%v workers=%d: non-parallel decider saw %d calls, want %d (serial fallback)",
					snr, soft, workers, counter.calls, nSyms)
			}
		}
	}
}

// TestDecodeDataParallelMatchesSerial pins the hard parallel decode of
// the standard decider to the serial one.
func TestDecodeDataParallelMatchesSerial(t *testing.T) { checkParallelMatchesSerial(t, false, false) }

// TestDecodeDataParallelFallbacks checks the hard decode's serial
// fallbacks against the serial decode.
func TestDecodeDataParallelFallbacks(t *testing.T) { checkParallelMatchesSerial(t, false, true) }

// TestDecodeDataSoftParallelMatchesSerial pins the soft parallel decode
// of the standard decider to the serial soft one.
func TestDecodeDataSoftParallelMatchesSerial(t *testing.T) {
	checkParallelMatchesSerial(t, true, false)
}

// TestDecodeDataSoftParallelFallbacks checks the soft decode's fallbacks:
// hard-only deciders match the hard decode, the rest the serial soft one.
func TestDecodeDataSoftParallelFallbacks(t *testing.T) { checkParallelMatchesSerial(t, true, true) }

// failingDecider is a stateless parallel soft decider that fails at
// every symbol from at on, so several workers can fail at once.
type failingDecider struct {
	StandardDecider
	at int
}

var errDecide = errors.New("decider failed")

func (d failingDecider) DecideSymbol(f *Frame, symIdx int, cons *modem.Constellation) ([]int, error) {
	if symIdx >= d.at {
		return nil, errDecide
	}
	return d.StandardDecider.DecideSymbol(f, symIdx, cons)
}

func (d failingDecider) DecideSymbolSoft(f *Frame, symIdx int, cons *modem.Constellation) ([]int, []float64, error) {
	if symIdx >= d.at {
		return nil, nil, errDecide
	}
	return d.StandardDecider.DecideSymbolSoft(f, symIdx, cons)
}

func (d failingDecider) ForkDecider() (SymbolDecider, bool) { return d, true }

// TestDecodeDataReportsFailingSymbol checks that a decider failing from
// any symbol on — first, interior or last — reports the first failing
// symbol's index with the decider's error, hard and soft, serial and
// parallel.
func TestDecodeDataReportsFailingSymbol(t *testing.T) {
	f, m, _ := parallelTestFrame(t, 30)
	last := m.SymbolsForPSDU(100) - 1
	for _, soft := range []bool{false, true} {
		decode := DecodeDataParallel
		if soft {
			decode = DecodeDataSoftParallel
		}
		for _, at := range []int{0, 3, last} {
			for _, workers := range []int{1, 2, 4} {
				_, err := decode(f, m, 100, failingDecider{at: at}, workers)
				want := fmt.Sprintf("rx: symbol %d: ", at)
				if err == nil || !strings.HasPrefix(err.Error(), want) || !errors.Is(err, errDecide) {
					t.Fatalf("soft=%v fail at %d, workers=%d: error %v, want %q wrapping %v", soft, at, workers, err, want, errDecide)
				}
			}
		}
	}
}

// TestDecodeDataAllocsFlatInSymbols checks that a serial decode's
// allocations do not grow with the symbol count: decoding a 1000-octet
// PSDU allocates no more than decoding a 10-octet one, hard and soft.
// Skipped under -race, where sync.Pool drops items at random.
func TestDecodeDataAllocsFlatInSymbols(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	for _, soft := range []bool{false, true} {
		decode := DecodeData
		if soft {
			decode = DecodeDataSoft
		}
		var allocs [2]float64
		for i, n := range []int{10, 1000} {
			f, _, psdu := buildFrame(t, int64(60+i), "QPSK 1/2", n, nil, 10000, 5)
			mcs, _ := wifi.MCSByName("QPSK 1/2")
			d := StandardDecider{}
			for range 2 { // warm the pools and the frame's decision slots
				if res, err := decode(f, mcs, n, d); err != nil || !res.FCSOK || !bytes.Equal(res.PSDU, psdu) {
					t.Fatalf("soft=%v %d octets: clean decode failed: %v", soft, n, err)
				}
			}
			allocs[i] = testing.AllocsPerRun(20, func() {
				if _, err := decode(f, mcs, n, d); err != nil {
					t.Fatal(err)
				}
			})
		}
		t.Logf("soft=%v: %v allocs at 10 octets, %v at 1000", soft, allocs[0], allocs[1])
		if allocs[1] > allocs[0] {
			t.Fatalf("soft=%v: %v allocs at 1000 octets > %v at 10", soft, allocs[1], allocs[0])
		}
	}
}

// TestScratchForkObservationsMatch checks that observations and standard
// decisions on a fork are bit-identical to those on the parent frame, and
// come from the fork's own buffers.
func TestScratchForkObservationsMatch(t *testing.T) {
	f, _, _ := parallelTestFrame(t, 20)
	segs, err := ofdm.SegmentPlan(f.Grid().CP, 2, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	cons := modem.New(modem.QAM16)
	// Fill the parent's decision slots before forking, so a fork that
	// inherited them would hand out the same buffers.
	if _, _, err := (StandardDecider{}).DecideSymbolSoft(f, 0, cons); err != nil {
		t.Fatal(err)
	}
	fork, err := f.ScratchFork()
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.ObserveSegments(1, segs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fork.ObserveSegments(1, segs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].CPE != want[i].CPE || got[i].PilotDev != want[i].PilotDev {
			t.Fatalf("segment %d: fork CPE/PilotDev diverge", i)
		}
		if d := dsp.MaxAbsDiff(got[i].Data, want[i].Data); d != 0 {
			t.Fatalf("segment %d: fork observations differ by %g", i, d)
		}
		// The fork must answer from its own scratch, not the parent's —
		// that independence is what makes concurrent observation safe.
		if &got[i].Data[0] == &want[i].Data[0] {
			t.Fatalf("segment %d: fork handed out the parent's scratch buffer", i)
		}
	}
	wantIdx, wantConf, err := StandardDecider{}.DecideSymbolSoft(f, 1, cons)
	if err != nil {
		t.Fatal(err)
	}
	gotIdx, gotConf, err := StandardDecider{}.DecideSymbolSoft(fork, 1, cons)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotIdx, wantIdx) || !slices.Equal(gotConf, wantConf) {
		t.Fatal("fork decisions differ from the parent's")
	}
	if &gotIdx[0] == &wantIdx[0] || &gotConf[0] == &wantConf[0] {
		t.Fatal("fork handed out the parent's decision slots")
	}
}
