package coding

import (
	"fmt"
	"sync"
)

// Hard-decision decoding on integer path metrics.
//
// Why this is exact. A hard decision is a ±1 LLR and a punctured position
// is an exact 0 erasure, so every branch cost the float decoder adds is
// one of −2…2 and every float path metric is a small exact integer.
// Integer metrics therefore reproduce every add and every comparison of
// the float recursion — the c0 <= c1 tie rule (even predecessor wins)
// and bestState's lowest-state-wins rule included — as long as they do
// not overflow, which per-block renormalisation rules out (see
// hardBlock). The one float value with no integer twin is the "infinity"
// of the states the all-zero start cannot reach yet: MaxFloat64/4
// absorbs additions, hardUnreached does not. That only changes choices
// in the first six steps between two still-unreachable predecessors. A
// reachable state always has a reachable survivor (any finite metric
// beats either infinity), state 0 is reachable at every step, and the
// best final state is reachable, so no traceback ever passes through the
// choices that differ and the decoded bits are identical.

// hardUnreached is the initial metric of the 63 states the encoder's
// all-zero start cannot be in. It exceeds every metric a reachable state
// can have in the first six steps (|metric| <= 12) by far more than those
// steps' costs can close.
const hardUnreached = 1 << 10

// hardBlock is the number of steps between renormalisations. After one,
// the path metrics span at most hardUnreached+24 (the survivor spread of
// a K=7 code with branch costs in [−2, 2] is at most 6·4), and a block
// moves them by at most 2·hardBlock either way, so int16 metrics — the
// AVX2 kernel's lane width — never overflow.
const hardBlock = 4096

// int8Pool recycles the depunctured {+1, −1, 0} streams between hard
// decodes, boxed like decisionsPool.
var int8Pool sync.Pool

// DecodeHardPuncturedAnchored decodes hard coded bits (0/1 per byte) sent
// at rate r, with nInfo information bits and the zero-state anchor after
// anchorBit bits, into dst when it has the capacity (a fresh slice
// otherwise). It is DecodePuncturedAnchored(dst, HardToLLR(coded), r,
// nInfo, anchorBit) bit for bit, on integer path metrics: the bits are
// depunctured straight into a pooled int8 stream and the forward pass
// runs the AVX2 kernel when internal/dsp reports AVX2 (and ForceScalar is
// off), the scalar integer loop otherwise. A steady-state decode into a
// reused dst does not allocate.
func (v *Viterbi) DecodeHardPuncturedAnchored(dst, coded []byte, r CodeRate, nInfo, anchorBit int) ([]byte, error) {
	lp, err := depunctureHard(coded, r, nInfo)
	if err != nil {
		return nil, err
	}
	defer int8Pool.Put(lp)
	if anchorBit < 0 || anchorBit > nInfo {
		return nil, fmt.Errorf("coding: anchor %d outside [0,%d]", anchorBit, nInfo)
	}
	if nInfo == 0 {
		return nil, nil
	}
	dp := getDecisions(nInfo)
	defer putDecisions(dp)
	surv := *dp
	return traceAnchored(dst, surv, forwardHard(*lp, surv), anchorBit), nil
}

// depunctureHard expands the punctured hard bits of nInfo information
// bits at rate r to mother-code positions as int8 LLRs: +1 for bit 0, −1
// for bit 1, 0 where the rate dropped a bit. The returned box comes from
// int8Pool; return it there.
func depunctureHard(coded []byte, r CodeRate, nInfo int) (*[]int8, error) {
	if want := PuncturedLen(nInfo, r); len(coded) != want {
		return nil, fmt.Errorf("coding: depuncture needs %d coded bits, have %d", want, len(coded))
	}
	lp, _ := int8Pool.Get().(*[]int8)
	if lp == nil || cap(*lp) < 2*nInfo {
		buf := make([]int8, 2*nInfo)
		lp = &buf
	}
	out := (*lp)[:2*nInfo]
	*lp = out
	if r == Rate1_2 {
		for i, b := range coded {
			out[i] = 1 - 2*int8(b&1)
		}
		return lp, nil
	}
	pat := r.puncturePattern()
	j, p := 0, 0
	for i := range out {
		if pat[p] {
			out[i] = 1 - 2*int8(coded[j]&1)
			j++
		} else {
			out[i] = 0
		}
		if p++; p == len(pat) {
			p = 0
		}
	}
	return lp, nil
}

// forwardHard runs the integer forward pass over len(surv) steps of the
// int8 mother stream llr, block by block with renormalisation between
// blocks, and returns the best final state.
func forwardHard(llr []int8, surv []uint64) int {
	var metric [numStates]int16
	for s := 1; s < numStates; s++ {
		metric[s] = hardUnreached
	}
	for t := 0; t < len(surv); t += hardBlock {
		end := min(t+hardBlock, len(surv))
		if !acsHardSIMD(&metric, llr[2*t:2*end], surv[t:end]) {
			acsHardScalar(&metric, llr[2*t:2*end], surv[t:end])
		}
		lo := metric[0]
		for _, m := range metric {
			lo = min(lo, m)
		}
		for s := range metric {
			metric[s] -= lo
		}
	}
	return bestState(&metric)
}

// acsHardScalar is the reference integer forward pass and the fallback
// of the AVX2 kernel: len(surv) steps from metric, written back at the
// end. The butterfly for k computes destination states k (input 0) and
// k+32 (input 1) from predecessors 2k and 2k+1; d < 0 exactly when the
// odd predecessor is strictly cheaper, so its sign bit is the survivor
// bit and min(c0, c1) = c0 + (d & (d >> 31)).
func acsHardScalar(metric *[numStates]int16, llr []int8, surv []uint64) {
	var metricA, metricB [numStates]int32
	cur, next := &metricA, &metricB
	for s, m := range metric {
		cur[s] = int32(m)
	}
	var cost [4]int32
	for t := range surv {
		la, lb := int32(llr[2*t]), int32(llr[2*t+1])
		cost[1] = la
		cost[2] = lb
		cost[3] = la + lb
		var word uint64
		for k := 0; k < numStates/2; k++ {
			m0, m1 := cur[2*k], cur[2*k+1]
			c0 := m0 + cost[outsIn[0][2*k]]
			d := m1 + cost[outsIn[0][2*k+1]] - c0
			next[k] = c0 + (d & (d >> 31))
			word |= uint64(uint32(d)>>31) << k
			c0 = m0 + cost[outsIn[1][2*k]]
			d = m1 + cost[outsIn[1][2*k+1]] - c0
			next[k+32] = c0 + (d & (d >> 31))
			word |= uint64(uint32(d)>>31) << (k + 32)
		}
		surv[t] = word
		cur, next = next, cur
	}
	for s, m := range cur {
		metric[s] = int16(m)
	}
}
