package rx

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/coding"
	"repro/internal/modem"
	"repro/internal/wifi"
)

// SymbolDecider turns one data OFDM symbol's observations into hard
// constellation decisions, one lattice index per data subcarrier. This is
// the plug point shared by the standard slicer, the paper's Naive and
// Oracle reference decoders, and CPRecycle's fixed-sphere ML decoder.
type SymbolDecider interface {
	// DecideSymbol returns the decided lattice indices for data symbol
	// symIdx of the frame, in ofdm.DataSubcarriers order.
	DecideSymbol(f *Frame, symIdx int, cons *modem.Constellation) ([]int, error)
}

// StandardDecider is the conventional receiver: it discards the cyclic
// prefix (uses the standard FFT window only) and slices each subcarrier to
// the nearest lattice point.
type StandardDecider struct{}

// DecideSymbol implements SymbolDecider. The decisions live in the
// Frame's decision slot, overwritten by the next decision on f (hard or
// soft); copy them to keep them.
func (StandardDecider) DecideSymbol(f *Frame, symIdx int, cons *modem.Constellation) ([]int, error) {
	obs, err := f.ObserveSymbol(symIdx, f.Grid().CP)
	if err != nil {
		return nil, err
	}
	out, _ := f.decisionSlots()
	for i, v := range obs.Data {
		out[i] = cons.Nearest(v)
	}
	return out, nil
}

// Result reports the outcome of decoding one frame's DATA field.
type Result struct {
	// PSDU is the recovered service-data unit (before FCS removal).
	PSDU []byte
	// FCSOK reports whether the frame check sequence verified.
	FCSOK bool
	// ScramblerSeed is the recovered 7-bit scrambler initial state.
	ScramblerSeed uint8
}

// DecodeData runs the full 802.11 DATA pipeline for a frame with known MCS
// and PSDU length (the experiment harness's genie-aided path — both
// receiver arms get identical framing so packet success isolates the
// decision stage): per-symbol decisions via the decider, deinterleave,
// depuncture, Viterbi, descramble with seed recovery, FCS check.
func DecodeData(f *Frame, mcs wifi.MCS, psduLen int, decider SymbolDecider) (Result, error) {
	return decodeData(f, mcs, psduLen, decider, false)
}

// decodeData is the one DATA decode behind DecodeData and DecodeDataSoft.
// It decides every symbol in order, writes each symbol's deinterleaved
// block into that symbol's slot of one pooled packet stream — coded bits,
// or Viterbi bit weights when soft is set and the decider is a
// SoftSymbolDecider — and hands the stream to the matching Viterbi tail.
// It stops at the first failing symbol and reports its index.
func decodeData(f *Frame, mcs wifi.MCS, psduLen int, decider SymbolDecider, soft bool) (Result, error) {
	il, err := wifi.DataInterleaver(mcs)
	if err != nil {
		return Result{}, err
	}
	softDecider, ok := decider.(SoftSymbolDecider)
	soft = soft && ok
	nSyms, ncbps, cons := mcs.SymbolsForPSDU(psduLen), mcs.Ncbps, modem.New(mcs.Scheme)

	obsStart := time.Now()
	sc := decodePool.Get().(*decodeScratch)
	defer decodePool.Put(sc)
	if soft {
		sc.llrs = resize(sc.llrs, nSyms*ncbps)
	} else {
		sc.coded = resize(sc.coded, nSyms*ncbps)
	}
	for k := range nSyms {
		lo, hi := k*ncbps, (k+1)*ncbps
		if soft {
			err = softSymbolLLRs(f, softDecider, k, cons, il, sc, sc.llrs[lo:hi])
		} else {
			err = hardSymbolBits(f, decider, k, cons, il, sc, sc.coded[lo:hi])
		}
		if err != nil {
			return Result{}, fmt.Errorf("rx: symbol %d: %w", k, err)
		}
	}
	stageObserve.ObserveSince(obsStart)
	if soft {
		return decodeLLRData(sc, mcs, psduLen, nSyms)
	}
	return decodeCodedData(sc, mcs, psduLen, nSyms)
}

// decodeScratch is a decode's working set: the packet stream, the
// per-symbol buffers that fill it and the Viterbi decoder's output.
// Pooled, so steady-state decoding reuses it; no slice outlives the
// decode that took it.
type decodeScratch struct {
	coded  []byte    // hard packet stream, Ncbps per symbol
	llrs   []float64 // soft packet stream, Ncbps per symbol
	info   []byte    // the decoded information bits, descrambled in place
	bits   []byte    // hard: one symbol's coded bits before deinterleaving; soft: one point's bit label
	blk    []float64 // one symbol's weights before deinterleaving
	sorted []float64 // normalize's sort buffer
	w      []float64 // normalize's output
}

var decodePool = sync.Pool{New: func() any { return new(decodeScratch) }}

// resize returns buf with length n, reallocating only when it is too
// small. The contents are not preserved.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// hardSymbolBits decides symbol k on f and writes the symbol's
// deinterleaved coded bits into dst (a Ncbps-sized slot of the packet
// stream), using sc's per-symbol buffer.
func hardSymbolBits(f *Frame, decider SymbolDecider, k int, cons *modem.Constellation,
	il *coding.Interleaver, sc *decodeScratch, dst []byte) error {
	idxs, err := decider.DecideSymbol(f, k, cons)
	if err != nil {
		return err
	}
	if len(idxs) != f.DataSubcarrierCount() {
		return fmt.Errorf("rx: decider returned %d decisions", len(idxs))
	}
	nb := cons.BitsPerSymbol()
	sc.bits = resize(sc.bits, len(idxs)*nb)
	for i, idx := range idxs {
		cons.BitsOf(idx, sc.bits[i*nb:])
	}
	il.DeinterleaveInto(dst, sc.bits)
	return nil
}

// decodeCodedData runs the post-decision half of the DATA pipeline on the
// deinterleaved coded bit stream sc.coded: depuncture, anchored integer
// Viterbi into sc.info, descramble, FCS.
func decodeCodedData(sc *decodeScratch, mcs wifi.MCS, psduLen, nSyms int) (Result, error) {
	defer stageDecode.ObserveSince(time.Now())
	nInfo := nSyms * mcs.Ndbps
	vit := coding.NewViterbi()
	// The DATA stream's scrambled pad bits follow the six tail bits, so the
	// encoder does not end in the zero state — but it IS in the zero state
	// right after the tail. Anchor the payload traceback there so pad-bit
	// channel errors can never corrupt PSDU bits (best-final-state
	// traceback can reach into the payload when the pad is shorter than
	// the survivor-merge depth).
	bits, err := vit.DecodeHardPuncturedAnchored(sc.info, sc.coded, mcs.Rate, nInfo, wifi.DataAnchorBit(psduLen, nInfo))
	if err != nil {
		return Result{}, err
	}
	sc.info = bits
	return finishData(bits, psduLen)
}

// finishData descrambles decoded DATA bits in place (recovering the
// scrambler seed from the seven zero SERVICE bits), extracts the PSDU and
// checks its FCS. The PSDU is its one allocation.
func finishData(bits []byte, psduLen int) (Result, error) {
	if len(bits) < 16+8*psduLen {
		return Result{}, fmt.Errorf("rx: %d decoded bits for %d-octet PSDU", len(bits), psduLen)
	}
	seed := RecoverScramblerSeed(bits)
	coding.NewScrambler(seed).Apply(bits)
	psdu := coding.BitsToBytes(bits[16 : 16+8*psduLen])
	_, ok := coding.CheckFCS(psdu)
	return Result{PSDU: psdu, FCSOK: ok, ScramblerSeed: seed}, nil
}

// RecoverScramblerSeed derives the transmitter's scrambler initial state
// from the first seven scrambled SERVICE bits, which the standard defines
// as zeros: the received bits therefore equal the scrambling sequence, and
// because the LFSR feeds its output back, pushing those seven bits through
// the register reconstructs the state at step 7. Rewinding seven steps
// yields the initial seed; equivalently, descrambling with the state built
// directly from the 7 bits and treating positions 0-6 as known zeros.
// This function returns the seed whose full sequence starts with bits[0:7].
func RecoverScramblerSeed(scrambled []byte) uint8 {
	if len(scrambled) < 7 {
		return coding.DefaultScramblerSeed
	}
	// Search the 127 possible seeds for the one reproducing the first 7
	// observed scrambling bits. The space is tiny and this is robust to the
	// feedback-register algebra.
	for seed := uint8(1); seed < 128; seed++ {
		s := coding.NewScrambler(seed)
		match := true
		for i := 0; i < 7; i++ {
			if s.NextBit() != scrambled[i]&1 {
				match = false
				break
			}
		}
		if match {
			return seed
		}
	}
	return coding.DefaultScramblerSeed
}

// DecodeSignal decodes the SIGNAL symbol of a frame using the standard FFT
// window and returns the advertised MCS and PSDU length.
func DecodeSignal(f *Frame) (wifi.MCS, int, error) {
	obs, err := f.ObserveSymbol(-1, f.Grid().CP)
	if err != nil {
		return wifi.MCS{}, 0, err
	}
	bpsk := modem.New(modem.BPSK)
	llrs := bpsk.LLR(obs.Data, 1, nil)
	return wifi.DecodeSignalSymbolLLRs(llrs, coding.NewViterbi())
}

// DecodeFrame is the fully self-contained receive path used by the
// examples: decode SIGNAL, then DATA with the given decider.
func DecodeFrame(f *Frame, decider SymbolDecider) (Result, wifi.MCS, error) {
	mcs, psduLen, err := DecodeSignal(f)
	if err != nil {
		return Result{}, wifi.MCS{}, fmt.Errorf("rx: SIGNAL: %w", err)
	}
	res, err := DecodeData(f, mcs, psduLen, decider)
	return res, mcs, err
}
