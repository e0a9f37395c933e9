package coding

import (
	"fmt"
	"math"
	"sync"
)

// Survivor format. Destination state ns of the K=7 trellis has exactly
// two predecessors, the even state 2·(ns&31) and the odd state
// 2·(ns&31)+1, both with input bit ns>>5 (from next = (in<<6|s)>>1). One
// trellis step's add-compare-select is therefore 64 binary choices, and
// its survivors are one uint64: bit ns is set when the odd predecessor
// won. Traceback steps back with state = (state&31)<<1 | bit. The float
// decoder (soft LLRs) and the integer decoder (hard bits) share this
// format and the traceback.
//
// At 8 bytes per step, the flat survivor array for the longest legal
// PSDU (4095 octets, ≈32.8k steps) takes ≈262 KB — half the float64 LLR
// stream the soft decoder already holds — so there is no sliding
// traceback window: it would bound a buffer that is no longer the large
// one.

// decisionsPool recycles the flat survivor arrays between decodes. The
// pool stores *[]uint64 boxes that are themselves recycled — callers hand
// the same pointer back — so steady state allocates neither the buffer
// nor an interface box.
var decisionsPool sync.Pool

// getDecisions returns a boxed survivor array with capacity for at least
// n trellis steps, sliced to length n. Every word is overwritten by the
// forward pass before the traceback reads it.
func getDecisions(n int) *[]uint64 {
	if v := decisionsPool.Get(); v != nil {
		bp := v.(*[]uint64)
		if cap(*bp) >= n {
			*bp = (*bp)[:n]
			return bp
		}
	}
	buf := make([]uint64, n)
	return &buf
}

// putDecisions recycles a box obtained from getDecisions. The caller must
// not retain the box or its buffer.
func putDecisions(bp *[]uint64) {
	decisionsPool.Put(bp)
}

// outsIn[in][s] is the branch output pair outA|outB<<1 of the transition
// from state s on input bit in, laid out per input bit as the
// destination-state ACS loops walk it. Computed once; read-only after.
var outsIn = func() (t [2][numStates]byte) {
	for s := 0; s < numStates; s++ {
		for in := 0; in < 2; in++ {
			reg := uint32(in)<<6 | uint32(s)
			t[in][s] = parity(reg&polyA) | parity(reg&polyB)<<1
		}
	}
	return t
}()

// Viterbi is a maximum-likelihood decoder for the 802.11 rate-1/2 K=7
// convolutional code. Decode and DecodeAnchored consume per-bit
// log-likelihood ratios (positive = bit 0 more likely; 0 = erasure, as
// produced by Depuncture) on float64 path metrics, so one implementation
// serves soft decisions and any hard ones given as ±1 LLRs; its forward
// pass runs an AVX2 kernel where internal/dsp reports AVX2, with output
// identical to the scalar loop's. DecodeHardPuncturedAnchored decodes
// hard bits directly on integer path metrics with bit-identical output
// (see its comment for why that is exact).
//
// The decoder assumes the encoder started in the all-zero state and, when
// Terminated is set, that six zero tail bits returned it there. Decoding
// never mutates the receiver, so one *Viterbi may be shared by
// concurrent decodes.
type Viterbi struct {
	// Terminated selects traceback from state 0 (true, the 802.11 case
	// with tail bits) or from the best final state (false). Read by
	// Decode and DecodeHard only.
	Terminated bool
}

// NewViterbi returns a decoder for terminated streams.
func NewViterbi() *Viterbi {
	return &Viterbi{Terminated: true}
}

// Decode recovers the information bits (including any tail bits the encoder
// appended) from mother-code LLRs. len(llrs) must be even; nInfo =
// len(llrs)/2 bits are returned.
func (v *Viterbi) Decode(llrs []float64) ([]byte, error) {
	if len(llrs)%2 != 0 {
		return nil, fmt.Errorf("coding: Viterbi needs an even LLR count, got %d", len(llrs))
	}
	n := len(llrs) / 2
	return decodeFloat(nil, llrs, v.anchorAll(n)), nil
}

// anchorAll maps Terminated onto an anchor for an n-step stream: anchored
// at the end (zero-state traceback throughout) or nowhere (best final
// state throughout).
func (v *Viterbi) anchorAll(n int) int {
	if v.Terminated {
		return n
	}
	return 0
}

// DecodeAnchored is Decode for streams whose encoder register is known to
// return to the all-zero state after anchorBit information bits, with
// further (uninformative) bits after it — the 802.11 DATA field, where
// SERVICE+PSDU+tail end in state zero and only scrambled pad bits follow.
// Bits [0, anchorBit) are traced back from that known zero state, so
// channel errors on the trailing pad can never corrupt payload bits (with
// best-final-state traceback they can when the pad is shorter than the
// survivor-merge depth). The trailing bits are traced from the best final
// state as in unterminated decoding. anchorBit == len(llrs)/2 is
// terminated decoding whatever Terminated says.
func (v *Viterbi) DecodeAnchored(llrs []float64, anchorBit int) ([]byte, error) {
	n := len(llrs) / 2
	if anchorBit < 0 || anchorBit > n {
		return nil, fmt.Errorf("coding: anchor %d outside [0,%d]", anchorBit, n)
	}
	if len(llrs)%2 != 0 {
		return nil, fmt.Errorf("coding: Viterbi needs an even LLR count, got %d", len(llrs))
	}
	return decodeFloat(nil, llrs, anchorBit), nil
}

// decodeFloat runs the float64 forward pass over len(llrs)/2 steps — the
// AVX2 kernel when internal/dsp reports AVX2 and ForceScalar is off,
// forwardFloat otherwise (purego builds and other architectures included)
// — and traces back into dst with the zero-state anchor at anchor (see
// traceAnchored).
func decodeFloat(dst []byte, llrs []float64, anchor int) []byte {
	n := len(llrs) / 2
	if n == 0 {
		return nil
	}
	dp := getDecisions(n)
	defer putDecisions(dp)
	surv := *dp
	final, ok := forwardFloatSIMD(llrs, surv)
	if !ok {
		final = forwardFloat(llrs, surv)
	}
	return traceAnchored(dst, surv, final, anchor)
}

// floatStart returns the float path metrics before the first step: 0 for
// the all-zero start state and a large finite "infinity" for the others.
func floatStart() (m [numStates]float64) {
	for s := 1; s < numStates; s++ {
		m[s] = math.MaxFloat64 / 4
	}
	return m
}

// forwardFloat runs the add-compare-select recursion on float64 path
// metrics, filling one survivor word per step, and returns the best final
// state. It is the reference for the AVX2 kernel (acsFloatAVX2) and the
// fallback wherever that does not run.
//
// The loop iterates over destination-state butterflies: states k and
// k+32 share the predecessors 2k and 2k+1, so each pair of metrics is
// loaded once, with no infinity screening. Branch costs and tie-breaking
// (the even, lower predecessor wins ties) are arithmetically identical to
// the per-source-state textbook formulation, so decoded output is bit for
// bit the textbook decoder's.
func forwardFloat(llrs []float64, surv []uint64) int {
	metricA, metricB := floatStart(), [numStates]float64{}
	metric, next := &metricA, &metricB
	// Per-step branch costs indexed by the branch output pair outA|outB<<1:
	// cost[o] = (la if o&1) + (lb if o&2). For o = 3 the two LLRs are
	// summed before the path metric is added, and every consumer of these
	// metrics (tests' textbook oracle included) keeps that association.
	var cost [4]float64
	for t := range surv {
		la, lb := llrs[2*t], llrs[2*t+1]
		cost[1] = la
		cost[2] = lb
		cost[3] = la + lb
		var word uint64
		for k := 0; k < numStates/2; k++ {
			m0, m1 := metric[2*k], metric[2*k+1]
			if c0, c1 := m0+cost[outsIn[0][2*k]], m1+cost[outsIn[0][2*k+1]]; c0 <= c1 {
				next[k] = c0
			} else {
				next[k] = c1
				word |= 1 << k
			}
			if c0, c1 := m0+cost[outsIn[1][2*k]], m1+cost[outsIn[1][2*k+1]]; c0 <= c1 {
				next[k+32] = c0
			} else {
				next[k+32] = c1
				word |= 1 << (k + 32)
			}
		}
		surv[t] = word
		metric, next = next, metric
	}
	return bestState(metric)
}

// bestState returns the state with the lowest path metric, the lowest
// state winning ties.
func bestState[T int16 | float64](metric *[numStates]T) int {
	state := 0
	for s, m := range metric {
		if m < metric[state] {
			state = s
		}
	}
	return state
}

// traceAnchored walks the survivors of len(surv) steps back into bits:
// bits [anchor, n) from state final at the end, bits [0, anchor) from the
// zero state at step anchor. anchor == n is terminated decoding; anchor
// == 0 is best-final-state decoding when final is the best state. The
// bits go into dst when it has the capacity, a fresh slice otherwise.
func traceAnchored(dst []byte, surv []uint64, final, anchor int) []byte {
	n := len(surv)
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	bits := dst[:n]
	traceback(surv, bits, anchor, n, final)
	traceback(surv, bits, 0, anchor, 0)
	return bits
}

// traceback fills bits[lo:hi] along the survivor path that is in state at
// step hi; the input bit that led into each state is its top bit.
func traceback(surv []uint64, bits []byte, lo, hi, state int) {
	for t := hi - 1; t >= lo; t-- {
		bits[t] = byte(state >> 5)
		state = (state&31)<<1 | int(surv[t]>>uint(state)&1)
	}
}

// float64Pool recycles the depunctured mother-code LLR streams between
// soft decodes, boxed like decisionsPool.
var float64Pool sync.Pool

// depuncturePooled is Depuncture into a buffer from float64Pool; return
// the box there once the stream has been decoded.
func depuncturePooled(llrs []float64, r CodeRate, motherLen int) (*[]float64, error) {
	bp, _ := float64Pool.Get().(*[]float64)
	if bp == nil || cap(*bp) < motherLen {
		buf := make([]float64, motherLen)
		bp = &buf
	}
	*bp = (*bp)[:motherLen]
	if err := depunctureInto(*bp, llrs, r); err != nil {
		float64Pool.Put(bp)
		return nil, err
	}
	return bp, nil
}

// DecodePuncturedAnchored depunctures llrs for rate r (nInfo information
// bits) and decodes with the zero-state anchor after anchorBit bits,
// writing the bits into dst when it has the capacity (a fresh slice
// otherwise) and returning them. The mother stream is pooled, so a
// steady-state decode into a reused dst does not allocate.
func (v *Viterbi) DecodePuncturedAnchored(dst []byte, llrs []float64, r CodeRate, nInfo, anchorBit int) ([]byte, error) {
	mp, err := depuncturePooled(llrs, r, 2*nInfo)
	if err != nil {
		return nil, err
	}
	defer float64Pool.Put(mp)
	if anchorBit < 0 || anchorBit > nInfo {
		return nil, fmt.Errorf("coding: anchor %d outside [0,%d]", anchorBit, nInfo)
	}
	return decodeFloat(dst, *mp, anchorBit), nil
}

// DecodeHard decodes hard-decision mother-code bits (0/1 per byte) on
// integer path metrics, with the traceback Terminated selects. The output
// equals Decode(HardToLLR(coded)).
func (v *Viterbi) DecodeHard(coded []byte) ([]byte, error) {
	if len(coded)%2 != 0 {
		return nil, fmt.Errorf("coding: Viterbi needs an even LLR count, got %d", len(coded))
	}
	n := len(coded) / 2
	return v.DecodeHardPuncturedAnchored(nil, coded, Rate1_2, n, v.anchorAll(n))
}

// DecodePunctured depunctures llrs for rate r (nInfo information bits,
// including tail) and decodes.
func (v *Viterbi) DecodePunctured(llrs []float64, r CodeRate, nInfo int) ([]byte, error) {
	mp, err := depuncturePooled(llrs, r, 2*nInfo)
	if err != nil {
		return nil, err
	}
	defer float64Pool.Put(mp)
	return v.Decode(*mp)
}
