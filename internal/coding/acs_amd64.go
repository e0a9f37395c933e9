//go:build !purego

package coding

import "repro/internal/dsp"

// acsHardAVX2 is the AVX2 integer forward pass (acs_amd64.s): n steps of
// acsHardScalar's recursion on int16 metrics, reading the step's
// branch-cost row from tab and writing one survivor word per step to
// surv. The int16 lanes cannot overflow under forwardHard's block
// renormalisation, so the metrics and survivor words equal the scalar
// loop's exactly.
//
//go:noescape
func acsHardAVX2(metric *[numStates]int16, llr *int8, surv *uint64, tab *[9][numStates]int16, n int)

// hardCostTab[3·(la+1)+(lb+1)] holds one step's branch costs for the
// butterfly layout of acsHardAVX2: lanes 0-31 are the cost of the
// even-predecessor branch into state k (k = 0…31), lanes 32-63 that of
// the odd-predecessor branch. For the destination states k+32 the kernel
// swaps the halves: both generator polynomials tap the input bit and the
// oldest register bit, so flipping either flips both outputs, and
// outsIn[1][2k] = outsIn[0][2k+1], outsIn[1][2k+1] = outsIn[0][2k].
var hardCostTab = func() (tab [9][numStates]int16) {
	for la := -1; la <= 1; la++ {
		for lb := -1; lb <= 1; lb++ {
			row := &tab[3*(la+1)+lb+1]
			cost := [4]int16{0, int16(la), int16(lb), int16(la + lb)}
			for k := 0; k < numStates/2; k++ {
				row[k] = cost[outsIn[0][2*k]]
				row[k+32] = cost[outsIn[0][2*k+1]]
			}
		}
	}
	return tab
}()

// acsHardSIMD runs the AVX2 kernel when internal/dsp has detected AVX2 and
// ForceScalar is off, reporting whether it did.
func acsHardSIMD(metric *[numStates]int16, llr []int8, surv []uint64) bool {
	if len(surv) == 0 || dsp.SIMDName() != "avx2" {
		return false
	}
	acsHardAVX2(metric, &llr[0], &surv[0], &hardCostTab, len(surv))
	return true
}

// acsFloatAVX2 is the AVX2 float64 forward pass (acs_amd64.s): n steps of
// forwardFloat's recursion from the metrics in cur, ping-ponging with
// next (after an odd n the final metrics are in next), writing one
// survivor word per step to surv. Every lane does the scalar loop's adds
// and comparison on the same operands, so survivors and metrics equal
// forwardFloat's bit for bit.
//
//go:noescape
func acsFloatAVX2(cur, next *[numStates]float64, llr *float64, surv *uint64, n int)

// forwardFloatSIMD runs forwardFloat on the AVX2 kernel when internal/dsp
// has detected AVX2 and ForceScalar is off, returning the best final
// state and whether it ran.
func forwardFloatSIMD(llrs []float64, surv []uint64) (int, bool) {
	if len(surv) == 0 || dsp.SIMDName() != "avx2" {
		return 0, false
	}
	metricA, metricB := floatStart(), [numStates]float64{}
	acsFloatAVX2(&metricA, &metricB, &llrs[0], &surv[0], len(surv))
	if len(surv)%2 == 1 {
		return bestState(&metricB), true
	}
	return bestState(&metricA), true
}
