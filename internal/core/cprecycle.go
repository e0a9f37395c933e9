// Package core implements the paper's contribution: the CPRecycle receiver
// (§4, Algorithm 1) together with the two reference decoders it is compared
// against, the Oracle (§3.2) and the Naive decoder (§3.3, Eq. 3).
//
// CPRecycle demodulates every ISI-free FFT segment of each OFDM symbol,
// corrects the deterministic per-segment phase ramp (handled by internal/rx
// via internal/ofdm), models the per-subcarrier interference from the
// amplitude/phase deviations of the preamble observations (§4.1, Eq. 4),
// and decides each subcarrier by maximum likelihood over the lattice points
// inside a fixed sphere (§4.2, Eq. 5).
//
// Two realisations of the ML detection are provided, selected by
// Config.Decision:
//
//   - DecisionModelWeighted (default): a robust per-segment weighted-L1
//     ML. Each segment's deviation is scaled by the interference level the
//     model predicts for that (subcarrier, segment), refreshed per symbol
//     from the four pilot subcarriers observed in the same FFT window. In
//     our discrete-time testbed this realisation reaches the Oracle's
//     symbol error rate (see the ablation benches).
//   - DecisionSphereKDE: the literal Eq. 4/5 pipeline — product of pooled
//     per-subcarrier Gaussian-kernel densities over all segments,
//     evaluated on the lattice points inside the sphere. Faithful to the
//     paper's formulas, but in our simulator its pooled (segment-
//     exchangeable) likelihood discards the persistent per-segment
//     interference structure and trails the weighted realisation; kept as
//     the reference and for the ablation study
//     (experiments.AblationDecision).
//
// All deciders plug into the shared 802.11 chain through rx.SymbolDecider,
// so packet-success comparisons isolate exactly the decision stage — the
// quantity the paper evaluates.
package core

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/dsp"
	"repro/internal/kde"
	"repro/internal/modem"
	"repro/internal/ofdm"
	"repro/internal/rx"
)

// Decision selects the ML detection realisation.
type Decision int

const (
	// DecisionModelWeighted is the robust pilot-tracked weighted ML
	// (recommended; matches the Oracle in the simulator).
	DecisionModelWeighted Decision = iota
	// DecisionSphereKDE is the paper-literal Eq. 4/5 fixed-sphere KDE
	// product.
	DecisionSphereKDE
)

// String names the decision rule.
func (d Decision) String() string {
	switch d {
	case DecisionModelWeighted:
		return "model-weighted"
	case DecisionSphereKDE:
		return "sphere-kde"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// Config parameterises a CPRecycle receiver.
type Config struct {
	// Segments lists the cyclic-prefix FFT window offsets to use, in
	// increasing order, as produced by ofdm.SegmentPlan. The number of
	// entries is the paper's P.
	Segments []int
	// Decision selects the ML realisation (see package comment).
	Decision Decision
	// Radius is the fixed-sphere radius R of Algorithm 1. Zero selects
	// 1.5× the constellation's minimum distance, which covers the handful
	// of neighbouring lattice points illustrated in Fig. 6c.
	Radius float64
	// Bandwidth selects the kernel bandwidths; nil uses kde.Silverman.
	// kde.LSCV is the paper's data-driven alternative.
	Bandwidth kde.BandwidthSelector
	// PerSegment trains one density per (subcarrier, segment) instead of
	// the paper's pooled per-subcarrier density (Eq. 4 pools all P·Np
	// deviations). Ablation for DecisionSphereKDE.
	PerSegment bool
	// FixedKernel disables the variable-bandwidth (Abramson) kernels the
	// paper calls for and uses plain fixed-bandwidth kernels. Ablation.
	FixedKernel bool
	// NoBackground disables the uniform background mixture added to each
	// density. Without it, deviations far from every training sample hit
	// the numerical log-density floor and randomise the ML comparison.
	// Ablation.
	NoBackground bool
	// NoPilotTracking freezes the interference model at its preamble
	// state instead of rescaling each segment's expected interference by
	// the per-symbol pilot deviations. Ablation for DecisionModelWeighted.
	NoPilotTracking bool
	// NoModelUpdate freezes the per-(segment, subcarrier) scales at their
	// preamble values instead of continuously refining them from decoded
	// symbols' residuals (§4.3: the model is "constantly updated").
	// Ablation for DecisionModelWeighted.
	NoModelUpdate bool
}

// Validate checks the configuration against a grid.
func (c Config) Validate(g ofdm.Grid) error {
	if len(c.Segments) == 0 {
		return fmt.Errorf("core: no FFT segments configured")
	}
	prev := -1
	for _, o := range c.Segments {
		if o < 0 || o > g.CP {
			return fmt.Errorf("core: segment offset %d outside [0,%d]", o, g.CP)
		}
		if o <= prev {
			return fmt.Errorf("core: segment offsets must be strictly increasing")
		}
		prev = o
	}
	if c.Radius < 0 {
		return fmt.Errorf("core: negative sphere radius")
	}
	return nil
}

// scaleFloor keeps reliability scales away from zero (a perfectly clean
// preamble segment still carries thermal noise at data time).
const scaleFloor = 0.02

// Receiver is a trained CPRecycle decoder for one frame. It implements
// rx.SymbolDecider. A Receiver is not safe for concurrent use: the
// decision methods reuse per-receiver scratch buffers, and the lattice
// index slice returned by DecideSymbol is overwritten by the next call.
type Receiver struct {
	cfg Config
	// tr is the shared preamble training (deviations, scales, lazily
	// fitted densities); possibly shared with other receiver arms
	// decoding the same frame.
	tr *Training
	// pooled[i] is the Eq. 4 density for data subcarrier i; in PerSegment
	// mode perSeg[j][i] holds segment j's density instead. In
	// model-weighted mode the densities are never consulted by the
	// decision rule, so they are fitted lazily on first use (ModelFor),
	// via the training's shared fit cache.
	pooled []*kde.Bivariate
	perSeg [][]*kde.Bivariate
	// scale[j][i] is the model's expected interference level (mean
	// preamble deviation amplitude) at segment j, subcarrier i. Shared
	// with the training; read-only.
	scale [][]float64
	// segMean[j] is scale[j][·] averaged over subcarriers — the reference
	// for the per-symbol pilot rescaling. Shared; read-only.
	segMean []float64
	// live[j][i] is the continuously updated scale (nil when
	// NoModelUpdate); it tracks the persistent per-packet interference
	// structure from decoded symbols' residuals. Receiver-owned: live
	// aliases liveRows, whose rows are windows of liveBuf, both kept
	// across Bind.
	live     [][]float64
	liveRows [][]float64
	liveBuf  []float64

	// Decision scratch, reused across symbols (no per-symbol allocation).
	out      []int
	cands    []int
	w        []float64
	ratio    []float64
	liveMean []float64
	pts      []complex128
	conf     []float64
	// dist and bestDist hold one candidate's per-segment distances
	// |X̂ʲ − l| and the leader's, which the §4.3 live update reuses.
	dist     []float64
	bestDist []float64
}

// emaAlpha weights the running residual average: high enough to smooth
// per-symbol amplitude fluctuation, low enough to converge within a few
// symbols.
const emaAlpha = 0.6

// NewReceiver trains a CPRecycle receiver on the frame's preamble: for each
// data subcarrier it collects the amplitude/phase deviations of every
// (segment, training symbol) observation from the known LTF lattice point
// and fits the interference model (§4.1). Experiments decoding several
// receiver arms on the same frame should Train once and construct each arm
// with NewReceiverFrom instead.
func NewReceiver(f *rx.Frame, cfg Config) (*Receiver, error) {
	if err := cfg.Validate(f.Grid()); err != nil {
		return nil, err
	}
	t, err := Train(f, cfg.Segments)
	if err != nil {
		return nil, err
	}
	return NewReceiverFrom(f, t, cfg)
}

// NewReceiverFrom builds a receiver on a shared preamble Training, which
// must cover exactly cfg.Segments. The receiver reads the training's
// scales and densities but owns its continuously-updated model state, so
// any number of arms can share one Training.
func NewReceiverFrom(f *rx.Frame, t *Training, cfg Config) (*Receiver, error) {
	return new(Receiver).Bind(f, t, cfg)
}

// Bind resets r to a fresh receiver on the training, as NewReceiverFrom
// builds, and returns r. The live model and the decision scratch are
// reused, so a Receiver recycled across packets allocates nothing here
// in the model-weighted mode; slices returned by earlier decisions are
// overwritten by later ones. cfg is kept as given: its Segments slice
// must not change while r is in use.
func (r *Receiver) Bind(f *rx.Frame, t *Training, cfg Config) (*Receiver, error) {
	if err := cfg.Validate(f.Grid()); err != nil {
		return nil, err
	}
	if !t.matches(cfg.Segments) {
		return nil, fmt.Errorf("core: training covers segments %v, receiver wants %v", t.segments, cfg.Segments)
	}
	nSC := t.nSC
	P := len(cfg.Segments)
	r.cfg, r.tr, r.scale, r.segMean = cfg, t, t.scale, t.segMean
	r.pooled, r.perSeg = nil, nil
	r.live = nil
	if !cfg.NoModelUpdate && cfg.Decision == DecisionModelWeighted {
		r.liveRows = rows(r.liveRows, &r.liveBuf, P, nSC)
		for j := range r.liveRows {
			copy(r.liveRows[j], r.scale[j])
		}
		r.live = r.liveRows
	}
	r.out = resize(r.out, nSC)
	r.w = resize(r.w, P)
	r.ratio = resize(r.ratio, P)
	r.pts = resize(r.pts, P)
	r.dist = resize(r.dist, P)
	r.bestDist = resize(r.bestDist, P)
	var err error
	if cfg.PerSegment {
		if r.perSeg, err = t.perSegment(cfg); err != nil {
			return nil, err
		}
		return r, nil
	}
	if cfg.Decision == DecisionModelWeighted {
		// The weighted-L1 rule never evaluates the Eq. 4 densities; they
		// are fitted lazily on first use (ModelFor) via the training's
		// shared cache — analyses see the same models either way.
		return r, nil
	}
	if r.pooled, err = t.pooled(cfg); err != nil {
		return nil, err
	}
	return r, nil
}

// resize returns buf with length n, reallocating only when it is too
// small. The contents are not preserved.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// ensurePooled fits (or fetches) the deferred pooled densities.
func (r *Receiver) ensurePooled() error {
	if r.pooled != nil {
		return nil
	}
	pooled, err := r.tr.pooled(r.cfg)
	if err != nil {
		return err
	}
	r.pooled = pooled
	return nil
}

// NumSegments returns P, the number of FFT segments in use.
func (r *Receiver) NumSegments() int { return len(r.cfg.Segments) }

// ModelFor returns the trained pooled density of data subcarrier i
// (by DataSubcarriers order); nil in per-segment mode. Exposed for the
// Fig. 6b density-accuracy analysis. In model-weighted mode the densities
// are fitted on the first call (the decision rule does not need them);
// should that deferred fit fail — the errors NewReceiver reports eagerly
// in the KDE decision modes — ModelFor also returns nil.
func (r *Receiver) ModelFor(i int) *kde.Bivariate {
	if r.cfg.PerSegment {
		return nil
	}
	if err := r.ensurePooled(); err != nil {
		return nil
	}
	if r.pooled == nil {
		return nil
	}
	return r.pooled[i]
}

// DecideSymbol implements rx.SymbolDecider.
func (r *Receiver) DecideSymbol(f *rx.Frame, symIdx int, cons *modem.Constellation) ([]int, error) {
	return r.decide(f, symIdx, cons, nil)
}

// DecideSymbolSoft implements rx.SoftSymbolDecider: the decisions are
// DecideSymbol's (the §4.3 live update included, so mixing hard and soft
// decoding of one frame stays coherent), and the confidence of each
// subcarrier is the score margin between the best and second-best sphere
// candidate under the per-segment weighted metric — exactly the quantity
// the interference model says separates the hypotheses. Subcarriers whose
// model scales are saturated by interference in every segment produce tiny
// margins and are effectively erased for the Viterbi decoder. The
// sphere-KDE realisation stays hard-decision (paper-literal) and gives
// every decision unit confidence. The confidence slice, like the
// decisions, is overwritten by the next call.
func (r *Receiver) DecideSymbolSoft(f *rx.Frame, symIdx int, cons *modem.Constellation) ([]int, []float64, error) {
	r.conf = resize(r.conf, f.DataSubcarrierCount())
	idxs, err := r.decide(f, symIdx, cons, r.conf)
	if err != nil {
		return nil, nil, err
	}
	return idxs, r.conf, nil
}

// decide observes symbol symIdx on every segment and runs the configured
// decision rule, writing confidences into conf unless it is nil.
func (r *Receiver) decide(f *rx.Frame, symIdx int, cons *modem.Constellation, conf []float64) ([]int, error) {
	obs, err := f.ObserveSegments(symIdx, r.cfg.Segments)
	if err != nil {
		return nil, err
	}
	if r.cfg.Decision == DecisionSphereKDE {
		for i := range conf {
			conf[i] = 1
		}
		return r.decideSphereKDE(f, obs, cons)
	}
	return r.decideModelWeighted(f, obs, cons, conf)
}

// decideModelWeighted is the recommended realisation: per subcarrier,
// argmin over sphere candidates of Σ_j |X̂ʲ − l| / s_{j,i}, with the scale
// s_{j,i} = preamble scale × per-symbol pilot ratio. The weighted-L1 form
// is the ML under a per-segment Laplacian interference model and is robust
// to the heavy-tailed per-symbol leakage the kernel product mishandles.
// When conf is non-nil it also receives each subcarrier's margin (see
// DecideSymbolSoft): 0 for an empty sphere's fallback decision, 1 for a
// sole candidate, otherwise the second-best minus the best score over the
// total weight.
func (r *Receiver) decideModelWeighted(f *rx.Frame, obs []rx.Observation, cons *modem.Constellation, conf []float64) ([]int, error) {
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
		r.liveMean = resize(r.liveMean, P)
		segMean = r.liveMean
		for j := range base {
			var tot float64
			for _, v := range base[j] {
				tot += v
			}
			segMean[j] = tot / float64(len(base[j]))
		}
	}
	// Per-symbol pilot rescaling of each segment's expected interference.
	ratio := r.ratio[:P]
	for j := range obs {
		ratio[j] = 1
		if !r.cfg.NoPilotTracking && obs[j].PilotDev > 0 {
			ratio[j] = (obs[j].PilotDev + scaleFloor) / (segMean[j] + scaleFloor)
		}
	}

	out := r.out[:nSC]
	cands := r.cands
	w := r.w[:P]
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
		// bestDist receives the decided point's per-segment distances
		// |X̂ʲ − l|, scored or (won false) measured for the §4.3 update.
		dist, bestDist := r.dist[:P], r.bestDist[:P]
		won := false
		switch len(cands) {
		case 0:
			out[i] = cons.Nearest(centroid)
			if conf != nil {
				conf[i] = 0 // fallback decision: treat as erasure
			}
		case 1:
			out[i] = cands[0]
			if conf != nil {
				conf[i] = 1 // sole candidate in the sphere: maximally confident
			}
		default:
			// A candidate is dropped as soon as its partial score reaches
			// the score it must beat: best on the hard path, second when
			// margins are wanted. Every term is ≥ 0 and rounded addition
			// is monotone, so the full score could not have beaten it
			// either, and the result is the full scan's bit for bit.
			best, second := math.Inf(1), math.Inf(1)
			bestLi := cands[0]
			for _, li := range cands {
				l := cons.Point(li)
				limit := best
				if conf != nil {
					limit = second
				}
				score := 0.0
				j := 0
				for ; j < P; j++ {
					dist[j] = dsp.Abs(obs[j].Data[i] - l)
					score += dist[j] * w[j]
					if score >= limit {
						break
					}
				}
				if j < P {
					continue
				}
				if score < best {
					second = best
					best, bestLi, won = score, li, true
					dist, bestDist = bestDist, dist
				} else if score < second {
					second = score
				}
			}
			out[i] = bestLi
			if conf != nil {
				// Normalise the margin by the total weight so confidences
				// are comparable across subcarriers with different scale
				// profiles.
				conf[i] = (second - best) / wsum
			}
		}
		if r.live != nil {
			// Continuous model update (§4.3): fold this symbol's residuals
			// from the decided point into the running scales. Even when the
			// decision is wrong the residual is off by at most one lattice
			// spacing, so heavily interfered segments still stand out.
			if !won {
				p := cons.Point(out[i])
				for j := range obs {
					bestDist[j] = dsp.Abs(obs[j].Data[i] - p)
				}
			}
			for j := range obs {
				r.live[j][i] = emaAlpha*r.live[j][i] + (1-emaAlpha)*(bestDist[j]+scaleFloor)
			}
		}
	}
	r.cands = cands
	return out, nil
}

// decideSphereKDE is the literal Algorithm 1 lines 9-13: centroid of the P
// observations, fixed sphere of radius R, argmax of the product of Eq. 4
// densities over segments.
func (r *Receiver) decideSphereKDE(f *rx.Frame, obs []rx.Observation, cons *modem.Constellation) ([]int, error) {
	if r.perSeg == nil {
		if err := r.ensurePooled(); err != nil {
			return nil, err
		}
	}
	radius := r.cfg.Radius
	if radius == 0 {
		radius = 1.5 * cons.MinDistance()
	}
	nSC := f.DataSubcarrierCount()
	out := r.out[:nSC]
	cands := r.cands
	pts := r.pts[:len(obs)]
	for i := 0; i < nSC; i++ {
		for j := range obs {
			pts[j] = obs[j].Data[i]
		}
		centroid := dsp.Centroid(pts)
		cands = cons.WithinRadius(centroid, radius, cands[:0])
		if len(cands) == 0 {
			// Graceful degradation: an empty sphere falls back to the
			// nearest lattice point to the centroid.
			out[i] = cons.Nearest(centroid)
			continue
		}
		best, bestScore := cands[0], math.Inf(-1)
		for _, li := range cands {
			l := cons.Point(li)
			score := 0.0
			for j := range pts {
				d := pts[j] - l
				amp := cmplx.Abs(d)
				ph := cmplx.Phase(d)
				if r.perSeg != nil {
					score += r.perSeg[j][i].LogDensity(amp, ph)
				} else {
					score += r.pooled[i].LogDensity(amp, ph)
				}
			}
			if score > bestScore {
				bestScore, best = score, li
			}
		}
		out[i] = best
	}
	r.cands = cands
	return out, nil
}
