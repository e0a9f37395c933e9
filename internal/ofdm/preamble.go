package ofdm

import (
	"fmt"
	"math"
	"sync"
)

// IEEE 802.11a/g §18.3.3 training sequences and §18.3.5.10 pilots,
// expressed on signed subcarrier indices −26 … +26.

// ltfSeq holds L_{-26..26} (53 values including DC = 0).
var ltfSeq = []float64{
	1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1, 1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1,
	0,
	1, -1, -1, 1, 1, -1, 1, -1, 1, -1, -1, -1, -1, -1, 1, 1, -1, -1, 1, -1, 1, -1, 1, 1, 1, 1,
}

// stfSeq holds S_{-26..26}/√(13/6) as ±(1+j) markers; zero elsewhere.
var stfSeq = map[int]complex128{
	-24: 1 + 1i, -20: -1 - 1i, -16: 1 + 1i, -12: -1 - 1i, -8: -1 - 1i, -4: 1 + 1i,
	4: -1 - 1i, 8: -1 - 1i, 12: 1 + 1i, 16: 1 + 1i, 20: 1 + 1i, 24: 1 + 1i,
}

// LTFValues returns the long training symbol's subcarrier map
// (±1 on the 52 used subcarriers).
func LTFValues() map[int]complex128 {
	out := make(map[int]complex128, 52)
	for i, v := range ltfSeq {
		sc := i - 26
		if v != 0 {
			out[sc] = complex(v, 0)
		}
	}
	return out
}

// LTFValue returns the known LTF value at subcarrier sc (zero if unused).
func LTFValue(sc int) complex128 {
	i := sc + 26
	if i < 0 || i >= len(ltfSeq) {
		return 0
	}
	return complex(ltfSeq[i], 0)
}

// STFValues returns the short training symbol's subcarrier map, including
// the √(13/6) power normalisation.
func STFValues() map[int]complex128 {
	k := complex(math.Sqrt(13.0/6.0), 0)
	out := make(map[int]complex128, len(stfSeq))
	for sc, v := range stfSeq {
		out[sc] = k * v
	}
	return out
}

// dataSCs is the shared DataSubcarriers slice, built once.
var dataSCs = func() []int {
	out := make([]int, 0, 48)
	for sc := -26; sc <= 26; sc++ {
		switch sc {
		case 0, -21, -7, 7, 21:
			continue
		}
		out = append(out, sc)
	}
	return out
}()

// pilotSCs is the shared PilotSubcarriers slice.
var pilotSCs = []int{-21, -7, 7, 21}

// DataSubcarriers lists the 48 data-bearing subcarriers of 802.11a/g in
// the order the standard assigns coded bits to them. The returned slice is
// shared and must not be modified.
func DataSubcarriers() []int { return dataSCs }

// PilotSubcarriers lists the four pilot subcarriers. The returned slice is
// shared and must not be modified.
func PilotSubcarriers() []int { return pilotSCs }

// pilotBase holds the per-subcarrier pilot values before polarity.
var pilotBase = map[int]complex128{-21: 1, -7: 1, 7: 1, 21: -1}

// pilotPolarity is the 127-element polarity sequence p₀…p₁₂₆ of
// §18.3.5.10; the SIGNAL symbol uses p₀ and data symbol n uses p₍n₊₁ mod 127₎.
var pilotPolarity = []int8{
	1, 1, 1, 1, -1, -1, -1, 1, -1, -1, -1, -1, 1, 1, -1, 1,
	-1, -1, 1, 1, -1, 1, 1, -1, 1, 1, 1, 1, 1, 1, -1, 1,
	1, 1, -1, 1, 1, -1, -1, 1, 1, 1, -1, 1, -1, -1, -1, 1,
	-1, 1, -1, -1, 1, -1, -1, 1, 1, 1, 1, 1, -1, -1, 1, 1,
	-1, -1, 1, -1, 1, -1, 1, 1, -1, -1, -1, 1, 1, -1, -1, -1,
	-1, 1, -1, -1, 1, -1, 1, 1, 1, 1, -1, 1, -1, 1, -1, 1,
	-1, -1, -1, -1, -1, 1, -1, 1, 1, -1, 1, -1, 1, 1, 1, -1,
	-1, 1, -1, -1, -1, 1, 1, 1, -1, -1, -1, -1, -1, -1, -1,
}

// PilotPolarity returns p_n for symbol counter n (n = 0 is the SIGNAL
// symbol; data symbol k uses n = k+1).
func PilotPolarity(n int) float64 {
	return float64(pilotPolarity[n%len(pilotPolarity)])
}

// PilotValues returns the four pilot subcarrier values for symbol counter n.
func PilotValues(n int) map[int]complex128 {
	pol := complex(PilotPolarity(n), 0)
	out := make(map[int]complex128, 4)
	for sc, v := range pilotBase {
		out[sc] = v * pol
	}
	return out
}

// PilotValue returns the pilot value at subcarrier sc for symbol counter n
// without building a map; sc must be one of PilotSubcarriers. This is the
// allocation-free form receivers and transmitters use per symbol.
func PilotValue(n, sc int) complex128 {
	base := complex128(1)
	if sc == 21 {
		base = -1
	}
	return base * complex(PilotPolarity(n), 0)
}

// preambleCache holds the synthesised preamble waveform per grid: the
// training fields are fixed by the standard, so transmitters built per
// packet reuse one copy.
var preambleCache sync.Map // Grid -> []complex128

// Preamble returns the 802.11a/g PLCP preamble (short training field
// followed by long training field) on the modulator's grid. On a native
// 64-point grid the result is exactly 320 samples (16 µs); on a q×
// oversampled grid it is 320·q samples covering the same 16 µs.
// The waveform is cached per grid; a fresh copy is returned each call.
func Preamble(m *Modulator) []complex128 {
	cached := cachedPreamble(m)
	out := make([]complex128, len(cached))
	copy(out, cached)
	return out
}

// PreambleInto writes the preamble scaled by gain into dst, which must
// have length PreambleLen(m.Grid()). It reads the cached waveform in
// place, so a transmitter pays no copy beyond dst.
func PreambleInto(dst []complex128, m *Modulator, gain float64) {
	cached := cachedPreamble(m)
	if len(dst) != len(cached) {
		panic(fmt.Sprintf("ofdm: PreambleInto got %d samples, want %d", len(dst), len(cached)))
	}
	gc := complex(gain, 0)
	for i, v := range cached {
		dst[i] = v * gc
	}
}

// cachedPreamble returns the shared, read-only preamble for m's grid,
// synthesising it on first use.
func cachedPreamble(m *Modulator) []complex128 {
	if v, ok := preambleCache.Load(m.Grid()); ok {
		return v.([]complex128)
	}
	v, _ := preambleCache.LoadOrStore(m.Grid(), synthesisePreamble(m))
	return v.([]complex128)
}

func synthesisePreamble(m *Modulator) []complex128 {
	g := m.Grid()
	n := g.NFFT

	// Short training field: the STF occupies every 4th subcarrier, so its
	// IFFT is periodic with period N/4; the field lasts 2.5·N samples.
	stfBody := m.Symbol(STFValues())[g.CP:] // one N-sample period set
	stf := make([]complex128, n*5/2)
	for i := range stf {
		stf[i] = stfBody[i%n]
	}

	// Long training field: double-length guard interval (N/2 samples,
	// = 2×CP at the standard CP=N/4... the standard specifies GI2 = 1.6 µs
	// = N/2 samples at 20 MHz) followed by two full periods of the LTF.
	ltfBody := m.Symbol(LTFValues())[g.CP:]
	ltf := make([]complex128, n/2+2*n)
	copy(ltf, ltfBody[n-n/2:])
	copy(ltf[n/2:], ltfBody)
	copy(ltf[n/2+n:], ltfBody)

	return append(stf, ltf...)
}

// PreambleLen returns the preamble length in samples for a grid.
func PreambleLen(g Grid) int { return g.NFFT*5/2 + g.NFFT/2 + 2*g.NFFT }

// LTFSymbolStarts returns the offsets (relative to the preamble start) at
// which the two LTF repetitions begin, each preceded by the usable guard:
// these are the "preamble OFDM symbols" whose CP region CPRecycle mines for
// interference statistics. Each returned start is the beginning of an
// implicit CP of length g.CP before the LTF body.
func LTFSymbolStarts(g Grid) [2]int {
	n := g.NFFT
	stfLen := n * 5 / 2
	gi2 := n / 2
	// First LTF body begins at stfLen+gi2; treat the last g.CP samples of
	// the guard before each body as that symbol's cyclic prefix. For the
	// second body, the first body acts as its cyclic extension (the LTF is
	// periodic), so its CP region is the tail of body 1.
	return [2]int{stfLen + gi2 - g.CP, stfLen + gi2 + n - g.CP}
}
