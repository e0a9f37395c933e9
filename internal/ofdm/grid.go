// Package ofdm implements the OFDM physical layer elements shared by the
// transmitter, the standard receiver and the CPRecycle receiver: subcarrier
// grids, cyclic-prefix modulation, the IEEE 802.11a/g training sequences and
// pilots, and — central to the paper — extraction of the P ISI-free FFT
// segments from the cyclic prefix together with the deterministic phase
// correction of Proposition 3.1 / Eq. 2.
//
// A Grid may describe either a native 64-point 802.11 channel or a
// transmitter embedded at an arbitrary block offset inside a wider composite
// band (the wide grid used to simulate adjacent-channel scenarios; the
// composite band is simply an oversampled view, so all signal properties are
// preserved).
//
// Segment extraction is batched: Demodulator.Segments computes all P
// windows of a symbol with one seed FFT plus sliding-DFT updates at a
// fixed bin selection and cached phase-ramp tables. The retired one-FFT-per-window form survives only as
// the independent reference implementation inside the package tests.
package ofdm

import (
	"fmt"

	"repro/internal/dsp"
)

// Grid describes one transmitter's OFDM numerology within a (possibly
// wider) sampled band.
type Grid struct {
	// NFFT is the FFT size of the sampled band in samples.
	NFFT int
	// CP is the cyclic prefix length in samples of the sampled band.
	CP int
	// Center is the FFT bin corresponding to this transmitter's DC
	// subcarrier. 0 for a native (baseband-centred) grid.
	Center int
}

// Validate reports whether the grid is usable.
func (g Grid) Validate() error {
	if !dsp.IsPow2(g.NFFT) {
		return fmt.Errorf("ofdm: NFFT %d is not a power of two", g.NFFT)
	}
	if g.CP < 0 || g.CP >= g.NFFT {
		return fmt.Errorf("ofdm: CP %d out of range for NFFT %d", g.CP, g.NFFT)
	}
	return nil
}

// SymLen returns the total OFDM symbol length CP+NFFT in samples.
func (g Grid) SymLen() int { return g.CP + g.NFFT }

// Bin maps a signed logical subcarrier index (… −2, −1, 1, 2 … relative to
// this transmitter's DC) to the FFT bin of the sampled band.
func (g Grid) Bin(sc int) int {
	b := (g.Center + sc) % g.NFFT
	if b < 0 {
		b += g.NFFT
	}
	return b
}

// Native80211Grid returns the 20 MHz 802.11a/g numerology: 64-point FFT,
// 16-sample cyclic prefix.
func Native80211Grid() Grid { return Grid{NFFT: 64, CP: 16} }

// WideGrid returns a grid for a transmitter using a native (nfft, cp)
// numerology embedded in a band oversampled by factor q, with its DC on
// composite bin center. Symbol durations in seconds are unchanged: every
// native sample becomes q composite samples.
func WideGrid(nfft, cp, q, center int) Grid {
	return Grid{NFFT: nfft * q, CP: cp * q, Center: center}
}

// CPSpec records the cyclic prefix provisioning of a standard channel
// width, reproducing Table 1 of the paper.
type CPSpec struct {
	Standard    string
	BandwidthHz float64
	FFTSize     int
	CPSize      int     // long guard interval, samples
	CPShort     int     // short guard interval, samples (0 when n/a)
	DurationUs  float64 // long GI duration in µs
}

// Table1 lists the 802.11 cyclic prefix specifications exactly as in the
// paper's Table 1.
func Table1() []CPSpec {
	return []CPSpec{
		{"802.11a/g", 20e6, 64, 16, 0, 0.8},
		{"802.11n/ac", 40e6, 128, 32, 16, 1.6},
		{"802.11n/ac", 80e6, 256, 64, 32, 3.2},
		{"802.11n/ac", 160e6, 512, 128, 64, 6.4},
	}
}

// LTECPSpec describes the LTE provisioning quoted in §2.2 of the paper:
// normal CP ≈ 4.7 µs (~7 % overhead) and extended CP 16.7 µs (25 %).
type LTECPSpec struct {
	Kind       string
	DurationUs float64
	OverheadPc float64
}

// LTETable returns the LTE cyclic prefix figures cited in the paper.
func LTETable() []LTECPSpec {
	return []LTECPSpec{
		{"normal", 4.7, 7},
		{"extended", 16.7, 25},
	}
}
