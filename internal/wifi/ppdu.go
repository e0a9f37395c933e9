package wifi

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/coding"
	"repro/internal/dsp"
	"repro/internal/modem"
	"repro/internal/ofdm"
)

// TxConfig configures a PPDU transmitter.
type TxConfig struct {
	// Grid is the OFDM numerology/placement (native or wide-band embedded).
	Grid ofdm.Grid
	// MCS selects modulation and code rate for the DATA field.
	MCS MCS
	// ScramblerSeed is the 7-bit scrambler initial state; 0 selects the
	// default seed.
	ScramblerSeed uint8
	// Gain scales the output waveform; 0 selects the gain that gives unit
	// average transmit power.
	Gain float64
}

// PPDU is an encoded 802.11a/g frame: baseband samples plus the layout
// metadata receivers and experiments need.
type PPDU struct {
	Samples []complex128
	Cfg     TxConfig
	PSDULen int
	// NumDataSymbols counts DATA OFDM symbols (excluding SIGNAL).
	NumDataSymbols int
	// PreambleLen is the STF+LTF length in samples.
	PreambleLen int
	// SignalStart is the sample index of the SIGNAL symbol's CP start.
	SignalStart int
	// DataStart is the sample index of the first DATA symbol's CP start.
	DataStart int
}

// DataSymbolStart returns the sample index of DATA symbol k's CP start.
func (p *PPDU) DataSymbolStart(k int) int {
	return p.DataStart + k*p.Cfg.Grid.SymLen()
}

// BuildPSDU appends the CRC-32 FCS to a payload, forming the PSDU whose
// success/failure defines the paper's packet success rate.
func BuildPSDU(payload []byte) []byte { return coding.AppendFCS(payload) }

// DrawPSDUInto fills dst with a random PSDU of len(dst) octets: a payload
// of len(dst)-4 octets read from r, then its FCS. It consumes r exactly
// like BuildPSDU(r.Bytes(len(dst)-4)) and returns dst.
func DrawPSDUInto(dst []byte, r *dsp.Rand) []byte {
	r.Read(dst[:len(dst)-4])
	coding.PutFCS(dst)
	return dst
}

// DataAnchorBit returns the information-bit position at which the DATA
// field's convolutional encoder register is back in the all-zero state:
// after SERVICE(16) + PSDU + the six zero tail bits, clamped to nInfo for
// degenerate layouts. Decoders anchor their payload traceback there
// (coding.Viterbi.DecodeAnchored) so errors on the scrambled pad bits
// cannot corrupt the payload.
func DataAnchorBit(psduLen, nInfo int) int {
	a := 16 + 8*psduLen + 6
	if a > nInfo {
		a = nInfo
	}
	return a
}

// BuildPPDU encodes a PSDU into a complete PPDU waveform.
func BuildPPDU(cfg TxConfig, psdu []byte) (*PPDU, error) {
	p, err := BuildPPDUInto(nil, cfg, psdu, 0, math.MaxInt)
	if err != nil {
		return nil, err
	}
	return &p, nil
}

// BuildPPDUInto is BuildPPDU writing only the samples in the window
// [lo, hi) of the waveform into buf; the window is clamped to the PPDU,
// so [0, math.MaxInt) builds it whole. The returned PPDU's Samples is
// buf[:total] when buf has the capacity (a fresh slice otherwise). Every
// sample in the window is written; samples outside it are unspecified,
// so buf may hold stale data. A window skips the preamble, SIGNAL and
// DATA symbols it does not overlap, and the DATA bit pipeline encodes
// only the information bits of the symbols it does: a transmitter whose
// waveform overhangs the receiver's stream pays only for what lands.
// The encoder's working set — modulator, bin and coded-bit buffers —
// comes from a pool, so with a large enough buf a steady-state call does
// not allocate.
func BuildPPDUInto(buf []complex128, cfg TxConfig, psdu []byte, lo, hi int) (PPDU, error) {
	if err := cfg.Grid.Validate(); err != nil {
		return PPDU{}, err
	}
	if len(psdu) < 1 || len(psdu) > MaxPSDULen {
		return PPDU{}, fmt.Errorf("wifi: PSDU length %d outside [1,%d]", len(psdu), MaxPSDULen)
	}
	m := cfg.MCS
	if m.Ndbps <= 0 || m.Ndbps%m.Rate.Num() != 0 || m.Ndbps*m.Rate.Den() != m.Ncbps*m.Rate.Num() {
		return PPDU{}, fmt.Errorf("wifi: MCS %q: %d data bits per symbol are not whole puncturing periods of %d coded bits", m.Name, m.Ndbps, m.Ncbps)
	}
	s := txPool.Get().(*txScratch)
	defer txPool.Put(s)
	mod, err := s.modulator(cfg.Grid)
	if err != nil {
		return PPDU{}, err
	}
	gain := cfg.Gain
	if gain == 0 {
		gain = mod.GainForUnitPower(52)
	}

	p := PPDU{Cfg: cfg, PSDULen: len(psdu)}
	p.NumDataSymbols = m.SymbolsForPSDU(len(psdu))
	p.PreambleLen = ofdm.PreambleLen(cfg.Grid)
	p.SignalStart = p.PreambleLen
	p.DataStart = p.SignalStart + cfg.Grid.SymLen()

	symLen := cfg.Grid.SymLen()
	total := p.DataStart + p.NumDataSymbols*symLen
	if cap(buf) < total {
		buf = make([]complex128, total)
	}
	p.Samples = buf[:total]
	lo, hi = max(lo, 0), min(hi, total)
	if len(s.bins) != cfg.Grid.NFFT {
		s.bins = make([]complex128, cfg.Grid.NFFT)
	}

	if lo < p.PreambleLen {
		ofdm.PreambleInto(p.Samples[:p.PreambleLen], mod, gain)
	}
	if lo < p.DataStart && hi > p.SignalStart {
		// SIGNAL symbol: BPSK, pilot polarity p₀.
		s.coded = encodeSignalSymbolInto(s.blk[:48], s.coded, m, len(psdu))
		assembleSymbolInto(p.Samples[p.SignalStart:p.DataStart], s.bins, mod, modem.New(modem.BPSK), s.blk[:48], 0, gain)
	}

	// The DATA symbols [k0, k1) overlap the window.
	k0 := max(0, (lo-p.DataStart)/symLen)
	k1 := min(p.NumDataSymbols, max(0, (hi-p.DataStart+symLen-1)/symLen))
	if k0 >= k1 {
		return p, nil
	}

	// DATA field bit pipeline (§18.3.5.4-7): SERVICE(16 zeros) + PSDU +
	// tail + pad, scrambled whole (the scrambler is sequential and cheap).
	nBits := p.NumDataSymbols * m.Ndbps
	bits := append(s.bits[:0], make([]byte, 16)...)
	bits = coding.AppendBits(bits, psdu)
	bits = append(bits, make([]byte, nBits-len(bits))...)
	s.bits = bits
	tailPos := 16 + 8*len(psdu)
	coding.NewScrambler(cfg.ScramblerSeed).Apply(bits)
	for i := 0; i < 6; i++ { // tail bits are forced to zero after scrambling
		bits[tailPos+i] = 0
	}
	il, err := DataInterleaver(m)
	if err != nil {
		return PPDU{}, err
	}
	cons := modem.New(m.Scheme)
	if len(s.blk) < m.Ncbps {
		s.blk = make([]byte, m.Ncbps)
	}
	blk := s.blk[:m.Ncbps]
	// Symbol k carries information bits [k·Ndbps, (k+1)·Ndbps). Ndbps is
	// a whole number of puncturing periods, so each symbol's block
	// punctures from the pattern's start, and the encoder's state at the
	// block is the six bits before it: encoding the block alone gives
	// the symbol's slice of the whole stream's coded bits.
	for k := k0; k < k1; k++ {
		s.coded = coding.AppendConvEncodeRange(s.coded[:0], bits, k*m.Ndbps, (k+1)*m.Ndbps)
		s.punct = coding.AppendPuncture(s.punct[:0], s.coded, m.Rate)
		il.InterleaveInto(blk, s.punct)
		start := p.DataStart + k*symLen
		assembleSymbolInto(p.Samples[start:start+symLen], s.bins, mod, cons, blk, k+1, gain)
	}
	return p, nil
}

// txScratch is BuildPPDUInto's working set, pooled so steady-state
// encoding reuses it. The modulator cache holds the few grids a scenario
// alternates between.
type txScratch struct {
	mods  []*ofdm.Modulator
	bins  []complex128
	bits  []byte
	coded []byte
	punct []byte
	blk   []byte
}

var txPool = sync.Pool{New: func() any { return &txScratch{blk: make([]byte, 48)} }}

// maxScratchGrids bounds txScratch's modulator cache; a sweep over many
// layouts restarts it rather than growing it without limit.
const maxScratchGrids = 8

func (s *txScratch) modulator(g ofdm.Grid) (*ofdm.Modulator, error) {
	for _, m := range s.mods {
		if m.Grid() == g {
			return m, nil
		}
	}
	m, err := ofdm.NewModulator(g)
	if err != nil {
		return nil, err
	}
	if len(s.mods) == maxScratchGrids {
		s.mods = s.mods[:0]
	}
	s.mods = append(s.mods, m)
	return m, nil
}

// mcsInterleavers holds the DATA-field interleaver of each standardMCS
// entry, shared by every encoder and decoder since it is immutable once
// built. Each
// is built on first use, so only the rates a program transmits stay on
// the heap.
var mcsInterleavers [len(standardMCS)]func() *coding.Interleaver

func init() {
	for i, m := range standardMCS {
		mcsInterleavers[i] = sync.OnceValue(func() *coding.Interleaver { return coding.MustInterleaver(m.Ncbps, m.Nbpsc) })
	}
}

// DataInterleaver returns the DATA-field interleaver for m's block shape:
// the shared one for a standard shape, a fresh one otherwise. The
// transmitter interleaves and the receiver deinterleaves through it; it is
// immutable, so concurrent use is safe.
func DataInterleaver(m MCS) (*coding.Interleaver, error) {
	for i, sm := range standardMCS {
		if sm.Ncbps == m.Ncbps && sm.Nbpsc == m.Nbpsc {
			return mcsInterleavers[i](), nil
		}
	}
	return coding.NewInterleaver(m.Ncbps, m.Nbpsc)
}

// assembleSymbolInto maps one symbol's interleaved coded bits onto the 48
// data subcarriers, adds the four pilots for symbol counter n, modulates
// and scales by gain, writing the SymLen samples into out. bins is caller
// scratch of length NFFT.
func assembleSymbolInto(out, bins []complex128, mod *ofdm.Modulator, cons *modem.Constellation, bits []byte, n int, gain float64) {
	scs := ofdm.DataSubcarriers()
	nb := cons.BitsPerSymbol()
	if len(bits) != len(scs)*nb {
		panic(fmt.Sprintf("wifi: %d bits for %d subcarriers at %d bpsc", len(bits), len(scs), nb))
	}
	g := mod.Grid()
	for i := range bins {
		bins[i] = 0
	}
	for _, sc := range ofdm.PilotSubcarriers() {
		bins[g.Bin(sc)] = ofdm.PilotValue(n, sc)
	}
	for i, sc := range scs {
		bins[g.Bin(sc)] = cons.Map(bits[i*nb : (i+1)*nb])
	}
	mod.SymbolFromBinsInto(out, bins, gain)
}
