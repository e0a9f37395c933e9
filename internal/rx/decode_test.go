package rx

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/modem"
	"repro/internal/wifi"
)

// failingDecider is a soft decider that fails at every symbol from at on.
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

// TestDecodeDataReportsFailingSymbol checks that a decider failing from
// any symbol on — first, interior or last — reports the first failing
// symbol's index with the decider's error, hard and soft.
func TestDecodeDataReportsFailingSymbol(t *testing.T) {
	f, _, _ := buildFrame(t, 71, "QPSK 1/2", 100, nil, 30, 5)
	m, _ := wifi.MCSByName("QPSK 1/2")
	last := m.SymbolsForPSDU(100) - 1
	for _, soft := range []bool{false, true} {
		decode := DecodeData
		if soft {
			decode = DecodeDataSoft
		}
		for _, at := range []int{0, 3, last} {
			_, err := decode(f, m, 100, failingDecider{at: at})
			want := fmt.Sprintf("rx: symbol %d: ", at)
			if err == nil || !strings.HasPrefix(err.Error(), want) || !errors.Is(err, errDecide) {
				t.Fatalf("soft=%v fail at %d: error %v, want %q wrapping %v", soft, at, err, want, errDecide)
			}
		}
	}
}

// TestDecodeDataAllocsFlatInSymbols checks that a decode's allocations do
// not grow with the symbol count: decoding a 1000-octet PSDU allocates no
// more than decoding a 10-octet one, hard and soft. Skipped under -race,
// where sync.Pool drops items at random.
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
