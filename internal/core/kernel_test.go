package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/dsp"
	"repro/internal/modem"
	"repro/internal/ofdm"
	"repro/internal/rx"
)

// fullScanModelWeighted is decideModelWeighted before the early exit: it
// scores every sphere candidate over every segment and recomputes the
// winner's residuals for the §4.3 update. It is the reference the kernel
// is pinned to.
func fullScanModelWeighted(r *Receiver, f *rx.Frame, obs []rx.Observation, cons *modem.Constellation, conf []float64) []int {
	P := len(obs)
	nSC := f.DataSubcarrierCount()
	radius := r.cfg.Radius
	if radius == 0 {
		radius = 1.5 * cons.MinDistance()
	}
	base := r.scale
	segMean := r.segMean
	if r.live != nil {
		base = r.live
		segMean = make([]float64, P)
		for j := range base {
			var tot float64
			for _, v := range base[j] {
				tot += v
			}
			segMean[j] = tot / float64(len(base[j]))
		}
	}
	ratio := make([]float64, P)
	for j := range obs {
		ratio[j] = 1
		if !r.cfg.NoPilotTracking && obs[j].PilotDev > 0 {
			ratio[j] = (obs[j].PilotDev + scaleFloor) / (segMean[j] + scaleFloor)
		}
	}
	out := make([]int, nSC)
	w := make([]float64, P)
	var cands []int
	for i := 0; i < nSC; i++ {
		var centroid complex128
		var wsum float64
		for j := range obs {
			s := base[j][i] * ratio[j]
			if s < scaleFloor {
				s = scaleFloor
			}
			w[j] = 1 / s
			centroid += obs[j].Data[i] * complex(w[j], 0)
			wsum += w[j]
		}
		centroid /= complex(wsum, 0)
		cands = cons.WithinRadius(centroid, radius, cands[:0])
		switch len(cands) {
		case 0:
			out[i] = cons.Nearest(centroid)
			if conf != nil {
				conf[i] = 0
			}
		case 1:
			out[i] = cands[0]
			if conf != nil {
				conf[i] = 1
			}
		default:
			best, second := math.Inf(1), math.Inf(1)
			bestLi := cands[0]
			for _, li := range cands {
				l := cons.Point(li)
				score := 0.0
				for j := range obs {
					score += dsp.Abs(obs[j].Data[i]-l) * w[j]
				}
				if score < best {
					second = best
					best, bestLi = score, li
				} else if score < second {
					second = score
				}
			}
			out[i] = bestLi
			if conf != nil {
				conf[i] = (second - best) / wsum
			}
		}
		if r.live != nil {
			p := cons.Point(out[i])
			for j := range obs {
				res := dsp.Abs(obs[j].Data[i] - p)
				r.live[j][i] = emaAlpha*r.live[j][i] + (1-emaAlpha)*(res+scaleFloor)
			}
		}
	}
	return out
}

// syntheticObservations draws P segment observations of one symbol:
// lattice points plus noise whose level differs per segment, with some
// subcarriers set to exact midpoints of two lattice points in every
// segment (so two candidates score exactly alike) or to a lattice point.
func syntheticObservations(r *rand.Rand, cons *modem.Constellation, P, nSC int, obs []rx.Observation) {
	pts := cons.Points()
	for j := 0; j < P; j++ {
		if len(obs[j].Data) != nSC {
			obs[j].Data = make([]complex128, nSC)
		}
		obs[j].PilotDev = 0
		if r.IntN(4) != 0 {
			obs[j].PilotDev = 0.5 * r.Float64()
		}
	}
	for i := 0; i < nSC; i++ {
		p := pts[r.IntN(len(pts))]
		switch r.IntN(8) {
		case 0: // exact tie between two lattice points
			q := pts[r.IntN(len(pts))]
			for j := 0; j < P; j++ {
				obs[j].Data[i] = (p + q) / 2
			}
		case 1: // on a lattice point
			for j := 0; j < P; j++ {
				obs[j].Data[i] = p
			}
		default:
			for j := 0; j < P; j++ {
				level := 0.05 * float64(1+j%4) * cons.MinDistance()
				if r.IntN(5) == 0 {
					level *= 20 // a heavily interfered segment
				}
				obs[j].Data[i] = p + complex(level*r.NormFloat64(), level*r.NormFloat64())
			}
		}
	}
}

// TestModelWeightedEarlyExitMatchesFullScan pins the early-exit kernel to
// the full-scan reference above, bit for bit: decisions, confidences and
// the live scales after every symbol, hard and soft, BPSK–64-QAM, P from
// 1 to 15, at the default, a small and a large sphere radius.
func TestModelWeightedEarlyExitMatchesFullScan(t *testing.T) {
	f, _, _ := runScenario(t, aciScenario(-15, 17, 57), 900, "QPSK 1/2", 60)
	g := f.Grid()
	q := g.NFFT / 64
	r := rand.New(rand.NewPCG(19, 2))
	nSC := f.DataSubcarrierCount()
	var ties int
	for _, s := range []modem.Scheme{modem.BPSK, modem.QPSK, modem.QAM16, modem.QAM64} {
		cons := modem.New(s)
		for P := 1; P <= 15; P++ {
			segs, err := ofdm.SegmentPlan(g.CP, q, P, 0)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := Train(f, segs)
			if err != nil {
				t.Fatal(err)
			}
			for _, radius := range []float64{0, 0.6, 3} {
				for _, soft := range []bool{false, true} {
					cfg := Config{Segments: segs, Radius: radius * cons.MinDistance()}
					got, err := NewReceiverFrom(f, tr, cfg)
					if err != nil {
						t.Fatal(err)
					}
					want, err := NewReceiverFrom(f, tr, cfg)
					if err != nil {
						t.Fatal(err)
					}
					obs := make([]rx.Observation, P)
					var gotConf, wantConf []float64
					if soft {
						gotConf, wantConf = make([]float64, nSC), make([]float64, nSC)
					}
					for sym := 0; sym < 6; sym++ {
						syntheticObservations(r, cons, P, nSC, obs)
						gotOut, err := got.decideModelWeighted(f, obs, cons, gotConf)
						if err != nil {
							t.Fatal(err)
						}
						wantOut := fullScanModelWeighted(want, f, obs, cons, wantConf)
						for i := range wantOut {
							if gotOut[i] != wantOut[i] {
								t.Fatalf("%v P=%d radius %v soft %v symbol %d sc %d: decision %d, full scan %d", s, P, radius, soft, sym, i, gotOut[i], wantOut[i])
							}
						}
						for i := range wantConf {
							if math.Float64bits(gotConf[i]) != math.Float64bits(wantConf[i]) {
								t.Fatalf("%v P=%d radius %v symbol %d sc %d: conf %v, full scan %v", s, P, radius, sym, i, gotConf[i], wantConf[i])
							}
							if wantConf[i] == 0 && radius != 0.6 {
								ties++
							}
						}
						for j := range want.live {
							for i, v := range want.live[j] {
								if math.Float64bits(got.live[j][i]) != math.Float64bits(v) {
									t.Fatalf("%v P=%d radius %v soft %v symbol %d: live [%d][%d] %v, full scan %v", s, P, radius, soft, sym, j, i, got.live[j][i], v)
								}
							}
						}
					}
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no zero-margin decision: the exact ties did not occur")
	}
}
