//go:build (amd64 || arm64) && !purego

package dsp

func init() { initASM() }

// The assembly kernels (asm_amd64.s / asm_arm64.s). All of them preserve
// the scalar operation order exactly — plain multiplies, adds and
// subtracts per lane, no FMA, no reassociation — so their results are
// bit-identical to the Go fallbacks for finite inputs. None of them
// retain or allocate memory; every pointer argument is a borrow for the
// duration of the call.

// slideTabASM runs the vectorised rotated-slide update over a SlideTab's
// dense runs: nruns (k0, twOff, groups) int triples at runs, each naming
// groups×asmLanes consecutive bins starting at bin k0. For each bin,
// dst[k] = src[k] + Σ_j diffs[j]·tw(k,j), with the twiddles streamed
// linearly from the lane-transposed twV layout.
//
//go:noescape
func slideTabASM(dre, dim, sre, sim, dfr, dfi, twV *float64, runs *int, m, nruns int)

// fftStage1ASM runs the size-2 butterfly stage (w⁰ add/sub pairs) over
// both planes. n must be a multiple of 4.
//
//go:noescape
func fftStage1ASM(re, im *float64, n int)

// fftStage2ASM runs the size-4 butterfly stage with the two stage
// twiddles pre-splatted in s2 (asmLanes re lanes then asmLanes im lanes).
// n must be a multiple of 8 on amd64 and of 4 on arm64.
//
//go:noescape
func fftStage2ASM(re, im, s2 *float64, n int)

// fftStageASM runs one generic butterfly stage of the given size ≥ 8,
// reading the stage's lane-grouped twiddle stream from tws (restarted for
// every size-sized block).
//
//go:noescape
func fftStageASM(re, im, tws *float64, n, size int)

// buildVecTwiddles lays the plan's twiddles out for the vector FFT
// stages: for the size-4 stage, its two twiddles splatted across asmLanes
// lanes (fwdS2/invS2); for every stage of size ≥ 8, the per-butterfly
// twiddles regrouped as [re×asmLanes, im×asmLanes] vector pairs in j
// order (fwdV/invV), one concatenated stream per stage. The values are
// copies of the scalar tables, so products computed from them are
// bit-identical. Sizes below 8 have too few butterflies per stage to fill
// a vector; those transforms stay scalar.
func (p *FFTPlan) buildVecTwiddles() {
	if !asmOK || p.n < 8 {
		return
	}
	p.fwdS2, p.fwdV = buildStageVecs(p.fwdP, p.n)
	p.invS2, p.invV = buildStageVecs(p.invP, p.n)
}

func buildStageVecs(twP []float64, n int) (s2, v []float64) {
	s2 = make([]float64, 2*asmLanes)
	step4 := n / 4
	for l := 0; l < asmLanes; l += 2 {
		s2[l] = twP[0]
		s2[l+1] = twP[2*step4]
		s2[asmLanes+l] = twP[1]
		s2[asmLanes+l+1] = twP[2*step4+1]
	}
	total := 0
	for size := 8; size <= n; size <<= 1 {
		total += size // half butterflies × (re, im) per stage
	}
	v = make([]float64, 0, total)
	for size := 8; size <= n; size <<= 1 {
		half := size / 2
		step := n / size
		for j := 0; j < half; j += asmLanes {
			for l := 0; l < asmLanes; l++ {
				v = append(v, twP[2*step*(j+l)])
			}
			for l := 0; l < asmLanes; l++ {
				v = append(v, twP[2*step*(j+l)+1])
			}
		}
	}
	return s2, v
}

// transformPlanarSIMD runs the planar transform through the assembly
// butterfly stages. It reports false — leaving the data untouched — when
// the SIMD path is unavailable (no CPU support, ForceScalar, or a plan
// smaller than 8 points). Butterflies within a stage are independent, so
// the vector stages' different walk order (block-outer instead of
// twiddle-outer) leaves every result bit-identical to the scalar path.
func (p *FFTPlan) transformPlanarSIMD(re, im []float64, fwd bool) bool {
	if p.fwdV == nil || !simdEnabled() {
		return false
	}
	bitrevPlanar(p.revPairs, re, im)
	n := p.n
	fftStage1ASM(&re[0], &im[0], n)
	s2, twV := p.fwdS2, p.fwdV
	if !fwd {
		s2, twV = p.invS2, p.invV
	}
	fftStage2ASM(&re[0], &im[0], &s2[0], n)
	off := 0
	for size := 8; size <= n; size <<= 1 {
		fftStageASM(&re[0], &im[0], &twV[off], n, size)
		off += size
	}
	return true
}

// buildVec lays the schedule out for slideTabASM. Receiver bin
// selections are dominated by contiguous subcarrier stretches, so the
// bins are split into dense runs — maximal stretches of consecutive bins
// (in sel order), rounded down to whole asmLanes groups — whose loads and
// stores vectorise as plain contiguous moves, no gathers. Within each
// group the twiddles are transposed to j-major [re×asmLanes,
// im×asmLanes] vectors so the kernel reads twV as one linear stream.
// Every bin not covered by a run is recorded in scalarPos for the scalar
// loop. If no stretch is long enough to fill a vector, runs stays nil
// and SlideRotatedTab keeps its all-scalar specialisations.
func (t *SlideTab) buildVec() {
	if !asmOK || t.m == 0 || len(t.sel) < asmLanes {
		return
	}
	var runs []int
	var scalar []int32
	var twV []float64
	for i := 0; i < len(t.sel); {
		// Extend the stretch of consecutive bins starting at position i.
		e := i + 1
		for e < len(t.sel) && t.sel[e] == t.sel[e-1]+1 {
			e++
		}
		groups := (e - i) / asmLanes
		if groups > 0 {
			runs = append(runs, t.sel[i], len(twV), groups)
			for g := 0; g < groups; g++ {
				base := i + g*asmLanes
				for j := 0; j < t.m; j++ {
					for l := 0; l < asmLanes; l++ {
						twV = append(twV, t.tw[2*((base+l)*t.m+j)])
					}
					for l := 0; l < asmLanes; l++ {
						twV = append(twV, t.tw[2*((base+l)*t.m+j)+1])
					}
				}
			}
		}
		for b := i + groups*asmLanes; b < e; b++ {
			scalar = append(scalar, int32(b))
		}
		i = e
	}
	if runs == nil {
		return
	}
	t.twV, t.runs, t.scalarPos = twV, runs, scalar
}
