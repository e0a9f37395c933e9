//go:build purego || !amd64

package coding

// acsHardSIMD and forwardFloatSIMD always decline here: this build has no
// ACS kernels (purego tag, or an architecture without them — arm64
// included), so forwardHard and decodeFloat run the scalar loops.
func acsHardSIMD(metric *[numStates]int16, llr []int8, surv []uint64) bool { return false }

func forwardFloatSIMD(llrs []float64, surv []uint64) (int, bool) { return 0, false }
