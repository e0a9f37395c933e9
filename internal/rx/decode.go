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

// ParallelDecider is implemented by SymbolDeciders whose per-symbol
// decisions are independent given the frame, so the one DATA decode
// behind DecodeDataParallel and DecodeDataSoftParallel can split symbols
// across workers, one fork each. ForkDecider returns a decider equivalent to the
// receiver but with its own scratch state, or ok == false when the
// decider's current configuration makes decisions order-dependent (e.g.
// CPRecycle's §4.3 continuous model update folds each decoded symbol's
// residuals into the next symbol's scales) — the decode then runs
// serially, keeping output identical either way.
type ParallelDecider interface {
	SymbolDecider
	ForkDecider() (SymbolDecider, bool)
}

// ForkDecider implements ParallelDecider: the standard slicer is
// stateless, so the decider forks to itself.
func (d StandardDecider) ForkDecider() (SymbolDecider, bool) { return d, true }

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
	return decodeData(f, mcs, psduLen, decider, 1, false)
}

// DecodeDataParallel is DecodeData with the per-symbol decisions split
// across up to workers workers, the first on the calling goroutine (see
// decodeData). The Result is
// bit-identical to DecodeData's at any worker count.
func DecodeDataParallel(f *Frame, mcs wifi.MCS, psduLen int, decider SymbolDecider, workers int) (Result, error) {
	return decodeData(f, mcs, psduLen, decider, workers, false)
}

// decodeData is the one DATA decode behind DecodeData, DecodeDataSoft and
// their parallel forms. It decides every symbol, writes each symbol's
// deinterleaved block into that symbol's slot of one pooled packet stream
// — coded bits, or Viterbi bit weights when soft is set and the decider
// is a SoftSymbolDecider — and hands the stream to the matching Viterbi
// tail. Symbols are split across up to workers workers by stride, each on
// its own Frame.ScratchFork view and ForkDecider clone; worker 0 is the
// caller's goroutine with the original frame and decider. Since every
// symbol lands in its own slot, the stream — and therefore the Result —
// is bit-identical at any worker count. The decode runs serially when
// workers <= 1, the decider is not a ParallelDecider, a fork is refused,
// or (soft) a fork loses the soft interface.
func decodeData(f *Frame, mcs wifi.MCS, psduLen int, decider SymbolDecider, workers int, soft bool) (Result, error) {
	il, err := wifi.DataInterleaver(mcs)
	if err != nil {
		return Result{}, err
	}
	if soft {
		_, soft = decider.(SoftSymbolDecider)
	}
	j := dataJob{nSyms: mcs.SymbolsForPSDU(psduLen), ncbps: mcs.Ncbps, cons: modem.New(mcs.Scheme), il: il, soft: soft}
	frames, deciders, err := forkWorkers(f, decider, min(workers, j.nSyms), soft)
	if err != nil {
		return Result{}, err
	}

	obsStart := time.Now()
	sc := decodePool.Get().(*decodeScratch)
	defer decodePool.Put(sc)
	if soft {
		sc.llrs = resize(sc.llrs, j.nSyms*j.ncbps)
		j.llrs = sc.llrs
	} else {
		sc.coded = resize(sc.coded, j.nSyms*j.ncbps)
		j.coded = sc.coded
	}
	var k int
	if frames == nil {
		k, err = j.decide(f, decider, 0, 1, sc)
	} else {
		k, err = fanOut(j, frames, deciders, sc)
	}
	if err != nil {
		return Result{}, fmt.Errorf("rx: symbol %d: %w", k, err)
	}
	stageObserve.ObserveSince(obsStart)
	if soft {
		return decodeLLRData(j.llrs, mcs, psduLen, j.nSyms)
	}
	return decodeCodedData(j.coded, mcs, psduLen, j.nSyms)
}

// forkWorkers returns each worker's frame view and decider — worker 0's
// being f and decider themselves — or nil when the decode must run
// serially (see decodeData).
func forkWorkers(f *Frame, decider SymbolDecider, workers int, soft bool) ([]*Frame, []SymbolDecider, error) {
	pd, ok := decider.(ParallelDecider)
	if workers <= 1 || !ok {
		return nil, nil, nil
	}
	frames := make([]*Frame, workers)
	deciders := make([]SymbolDecider, workers)
	frames[0], deciders[0] = f, decider
	for w := 1; w < workers; w++ {
		fork, ok := pd.ForkDecider()
		if !ok {
			return nil, nil, nil
		}
		if _, ok := fork.(SoftSymbolDecider); soft && !ok {
			return nil, nil, nil
		}
		fw, err := f.ScratchFork()
		if err != nil {
			return nil, nil, err
		}
		frames[w], deciders[w] = fw, fork
	}
	return frames, deciders, nil
}

// fanOut runs worker w on frames[w] and deciders[w], each but worker 0 on
// its own goroutine and pooled scratch, and returns the lowest failing
// symbol. It takes the job by value and lives apart from decodeData so
// that the goroutine closures' captures do not move the serial path's
// state to the heap.
func fanOut(j dataJob, frames []*Frame, deciders []SymbolDecider, sc *decodeScratch) (int, error) {
	n := len(frames)
	ks := make([]int, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 1; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := decodePool.Get().(*decodeScratch)
			defer decodePool.Put(ws)
			ks[w], errs[w] = j.decide(frames[w], deciders[w], w, n, ws)
		}()
	}
	ks[0], errs[0] = j.decide(frames[0], deciders[0], 0, n, sc)
	wg.Wait()
	k, err := 0, error(nil)
	for w := range errs {
		if errs[w] != nil && (err == nil || ks[w] < k) {
			k, err = ks[w], errs[w]
		}
	}
	return k, err
}

// decodeScratch is a decode's working set: worker 0's holds the packet
// stream, and every worker's holds its per-symbol buffers. Pooled, so
// steady-state decoding reuses it; no slice outlives the decode that took
// it.
type decodeScratch struct {
	coded  []byte    // hard packet stream, Ncbps per symbol
	llrs   []float64 // soft packet stream, Ncbps per symbol
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

// dataJob is one DATA decode's shape and its packet stream: coded for a
// hard decode, llrs for a soft one, nSyms slots of ncbps each.
type dataJob struct {
	nSyms, ncbps int
	cons         *modem.Constellation
	il           *coding.Interleaver
	soft         bool
	coded        []byte
	llrs         []float64
}

// decide is the per-symbol decode loop. It decides symbols w, w+n, w+2n, …
// on f with decider, writing each into its slot of the packet stream
// through sc's per-symbol buffers, and stops at the first failure, which
// it returns with the symbol's index.
func (j *dataJob) decide(f *Frame, decider SymbolDecider, w, n int, sc *decodeScratch) (int, error) {
	soft, _ := decider.(SoftSymbolDecider)
	for k := w; k < j.nSyms; k += n {
		lo, hi := k*j.ncbps, (k+1)*j.ncbps
		var err error
		if j.soft {
			err = softSymbolLLRs(f, soft, k, j.cons, j.il, sc, j.llrs[lo:hi])
		} else {
			err = hardSymbolBits(f, decider, k, j.cons, j.il, sc, j.coded[lo:hi])
		}
		if err != nil {
			return k, err
		}
	}
	return 0, nil
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
// deinterleaved coded bit stream: depuncture, anchored integer Viterbi,
// descramble, FCS.
func decodeCodedData(coded []byte, mcs wifi.MCS, psduLen, nSyms int) (Result, error) {
	defer stageDecode.ObserveSince(time.Now())
	nInfo := nSyms * mcs.Ndbps
	vit := coding.NewViterbi()
	// The DATA stream's scrambled pad bits follow the six tail bits, so the
	// encoder does not end in the zero state — but it IS in the zero state
	// right after the tail. Anchor the payload traceback there so pad-bit
	// channel errors can never corrupt PSDU bits (best-final-state
	// traceback can reach into the payload when the pad is shorter than
	// the survivor-merge depth).
	bits, err := vit.DecodeHardPuncturedAnchored(coded, mcs.Rate, nInfo, wifi.DataAnchorBit(psduLen, nInfo))
	if err != nil {
		return Result{}, err
	}
	return finishData(bits, psduLen)
}

// finishData descrambles decoded DATA bits (recovering the scrambler seed
// from the seven zero SERVICE bits), extracts the PSDU and checks its FCS.
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
