//go:build purego || !amd64

package coding

// acsHardSIMD always declines here: this build has no integer ACS kernel
// (purego tag, or an architecture without one — arm64 included), so
// forwardHard runs the scalar loop.
func acsHardSIMD(metric *[numStates]int16, llr []int8, surv []uint64) bool { return false }
