// Package wifi implements the IEEE 802.11a/g OFDM PHY framing: the
// modulation-and-coding-scheme table, the SIGNAL field, and the full PPDU
// encoder (preamble, SIGNAL, scrambled/coded/interleaved DATA symbols).
// It plays the role of the off-the-shelf 802.11g transmitters and USRP
// interferers in the paper's testbed.
package wifi

import (
	"fmt"
	"slices"

	"repro/internal/coding"
	"repro/internal/modem"
)

// MCS describes one 802.11a/g modulation and coding scheme.
type MCS struct {
	Name     string
	Mbps     float64
	Scheme   modem.Scheme
	Rate     coding.CodeRate
	RateBits byte // 4-bit RATE field value (R1-R4, R1 first)
	Nbpsc    int  // coded bits per subcarrier
	Ncbps    int  // coded bits per OFDM symbol
	Ndbps    int  // data bits per OFDM symbol
}

// standardMCS is the 802.11a/g rate table in ascending order.
var standardMCS = [...]MCS{
	{"BPSK 1/2", 6, modem.BPSK, coding.Rate1_2, 0b1101, 1, 48, 24},
	{"BPSK 3/4", 9, modem.BPSK, coding.Rate3_4, 0b1111, 1, 48, 36},
	{"QPSK 1/2", 12, modem.QPSK, coding.Rate1_2, 0b0101, 2, 96, 48},
	{"QPSK 3/4", 18, modem.QPSK, coding.Rate3_4, 0b0111, 2, 96, 72},
	{"16-QAM 1/2", 24, modem.QAM16, coding.Rate1_2, 0b1001, 4, 192, 96},
	{"16-QAM 3/4", 36, modem.QAM16, coding.Rate3_4, 0b1011, 4, 192, 144},
	{"64-QAM 2/3", 48, modem.QAM64, coding.Rate2_3, 0b0001, 6, 288, 192},
	{"64-QAM 3/4", 54, modem.QAM64, coding.Rate3_4, 0b0011, 6, 288, 216},
}

// StandardMCS lists all eight 802.11a/g rates in ascending order, in a
// fresh slice the caller may modify.
func StandardMCS() []MCS { return slices.Clone(standardMCS[:]) }

// MCSByName returns the MCS with the given Name.
func MCSByName(name string) (MCS, error) {
	for _, m := range standardMCS {
		if m.Name == name {
			return m, nil
		}
	}
	return MCS{}, fmt.Errorf("wifi: unknown MCS %q", name)
}

// MCSByRateBits returns the MCS encoded by a SIGNAL field RATE value.
func MCSByRateBits(bits byte) (MCS, error) {
	for _, m := range standardMCS {
		if m.RateBits == bits&0xF {
			return m, nil
		}
	}
	return MCS{}, fmt.Errorf("wifi: invalid RATE bits %04b", bits&0xF)
}

// PaperMCS returns the three schemes the paper evaluates (§5.1):
// QPSK 1/2, 16-QAM 1/2 and 64-QAM 2/3.
func PaperMCS() []MCS {
	out := make([]MCS, 0, 3)
	for _, name := range []string{"QPSK 1/2", "16-QAM 1/2", "64-QAM 2/3"} {
		m, err := MCSByName(name)
		if err != nil {
			panic(err)
		}
		out = append(out, m)
	}
	return out
}

// SymbolsForPSDU returns the number of DATA OFDM symbols needed for a PSDU
// of n octets: ceil((16 + 8n + 6) / Ndbps) per §18.3.5.4.
func (m MCS) SymbolsForPSDU(n int) int {
	bits := 16 + 8*n + 6
	return (bits + m.Ndbps - 1) / m.Ndbps
}
