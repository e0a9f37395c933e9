package core

import (
	"fmt"
	"math/cmplx"
	"reflect"
	"slices"
	"sync"

	"repro/internal/dsp"
	"repro/internal/kde"
	"repro/internal/ofdm"
	"repro/internal/rx"
)

// dev is one preamble deviation sample: a received LTF observation's
// offset d from its known lattice point, and its amplitude |d|. The
// phase arg(d) is read only by the KDE fits (pooled, perSegment), which
// take it with phase(); the model-weighted decision reads amplitudes
// only, so Train does not pay an atan2 per sample.
type dev struct {
	d   complex128
	amp float64
}

// phase returns the deviation's phase arg(d) in (−π, π].
func (v dev) phase() float64 { return cmplx.Phase(v.d) }

// Training is the preamble-derived interference model for one (frame,
// segment plan): the per-(segment, subcarrier, LTF symbol) deviations and
// the per-segment expected interference scales of §4.1. It holds
// everything receiver construction needs that does not depend on the
// receiver configuration, so the several CPRecycle arms an experiment
// decodes per packet — and any analysis probing the same frame — share
// one preamble pass instead of re-training per arm.
//
// The Eq. 4 kernel densities are fitted lazily, once per distinct fit
// configuration (bandwidth selector, kernel kind, background mixture),
// and cached on the Training; receivers with equal fit options share the
// fitted models. Only those fits read the deviations' phases, so the
// training pass stores each deviation and its amplitude and leaves the
// phase to the first fit. A Training is immutable after construction
// apart from that cache, which is mutex-guarded, so it is safe to share
// across receivers and goroutines — until its Train method retrains it
// in place for the next packet.
type Training struct {
	segments []int
	nSC      int
	devs     [][][2]dev // [segment][subcarrier][LTF symbol]
	scale    [][]float64
	segMean  []float64
	// devBuf and scaleBuf back the rows of devs and scale.
	devBuf   [][2]dev
	scaleBuf []float64

	mu         sync.Mutex
	pooledFits map[fitOptions][]*kde.Bivariate
	perSegFits map[fitOptions][][]*kde.Bivariate
}

// fitOptions identifies one KDE fit configuration in the shared cache.
// Only the package-level selectors (kde.Silverman, kde.LSCV) have usable
// function identity: closures such as kde.FixedBandwidth(h) share one
// code pointer for every h, so configurations using any other selector
// are never cached — each receiver fits its own models instead of
// silently inheriting another bandwidth's.
type fitOptions struct {
	bw           uintptr
	fixedKernel  bool
	noBackground bool
}

// fitOptionsOf resolves the configuration's selector and reports whether
// its fits may be shared through the training cache.
func fitOptionsOf(cfg Config) (key fitOptions, sel kde.BandwidthSelector, cacheable bool) {
	sel = cfg.Bandwidth
	if sel == nil {
		sel = kde.Silverman
	}
	p := reflect.ValueOf(sel).Pointer()
	cacheable = p == reflect.ValueOf(kde.Silverman).Pointer() || p == reflect.ValueOf(kde.LSCV).Pointer()
	return fitOptions{
		bw:           p,
		fixedKernel:  cfg.FixedKernel,
		noBackground: cfg.NoBackground,
	}, sel, cacheable
}

// Train runs CPRecycle's preamble training pass (§4.1) for the segment
// plan on the frame: one batched observation of every (segment, training
// symbol) window, deviations from the known LTF lattice points, and the
// per-(segment, subcarrier) expected interference scales.
func Train(f *rx.Frame, segments []int) (*Training, error) {
	return new(Training).Train(f, segments)
}

// Train retrains t in place on the frame, as the function Train does,
// and returns t. The deviation and scale tables are reused, and the KDE
// fit cache is cleared, so a Training recycled across packets allocates
// nothing for the pass. Receivers built on t before the call read the
// new model afterwards; rebind them (Receiver.Bind) to the new frame.
// Like every other use of a Training, the call is not safe while other
// goroutines read t.
func (t *Training) Train(f *rx.Frame, segments []int) (*Training, error) {
	if err := (Config{Segments: segments}).Validate(f.Grid()); err != nil {
		return nil, err
	}
	scs := ofdm.DataSubcarriers()
	nSC := len(scs)
	P := len(segments)

	// One batched pass over the preamble: every (segment, training symbol)
	// window via the sliding-DFT path instead of P independent full FFTs
	// per training symbol.
	pre, err := f.ObservePreambleAll(segments)
	if err != nil {
		return nil, fmt.Errorf("core: preamble training: %w", err)
	}
	t.segments = append(t.segments[:0], segments...)
	t.nSC = nSC
	t.devs = rows(t.devs, &t.devBuf, P, nSC)
	t.scale = rows(t.scale, &t.scaleBuf, P, nSC)
	t.segMean = resize(t.segMean, P)
	clear(t.pooledFits)
	clear(t.perSegFits)
	for j := range segments {
		obs := pre[j]
		var tot float64
		for i, sc := range scs {
			want := ofdm.LTFValue(sc)
			var mean float64
			for s := 0; s < 2; s++ {
				d := obs[s][i] - want
				amp := dsp.Abs(d)
				t.devs[j][i][s] = dev{d, amp}
				mean += amp
			}
			t.scale[j][i] = mean/2 + scaleFloor
			tot += t.scale[j][i]
		}
		t.segMean[j] = tot / float64(nSC)
	}
	return t, nil
}

// rows returns a P×n table whose rows are consecutive n-long windows of
// *buf, reusing the row headers and the backing buffer when they are big
// enough. The contents are not preserved.
func rows[T any](tab [][]T, buf *[]T, p, n int) [][]T {
	*buf = resize(*buf, p*n)
	tab = resize(tab, p)
	for j := range tab {
		tab[j] = (*buf)[j*n : (j+1)*n : (j+1)*n]
	}
	return tab
}

// Segments returns the trained segment plan (not a copy; do not modify).
func (t *Training) Segments() []int { return t.segments }

// matches reports whether the training covers exactly the given plan.
func (t *Training) matches(segments []int) bool {
	return slices.Equal(segments, t.segments)
}

// fitFunc builds the single-density fit routine for a configuration:
// adaptive or fixed kernels, selector-chosen bandwidths, optional uniform
// background mixture.
func fitFunc(cfg Config) func(amps, phs []float64) (*kde.Bivariate, error) {
	_, sel, _ := fitOptionsOf(cfg)
	fitRaw := kde.NewBivariateAdaptive
	if cfg.FixedKernel {
		fitRaw = kde.NewBivariateAuto
	}
	return func(amps, phs []float64) (*kde.Bivariate, error) {
		m, err := fitRaw(amps, phs, sel)
		if err != nil {
			return nil, err
		}
		if !cfg.NoBackground {
			maxAmp := 1.0
			for _, a := range amps {
				if 2*a+2 > maxAmp {
					maxAmp = 2*a + 2
				}
			}
			m.SetBackground(0.05, maxAmp)
		}
		return m, nil
	}
}

// pooled returns the Eq. 4 pooled per-subcarrier densities for the fit
// configuration, fitting them on first use and sharing them with every
// receiver that asks with equal options.
func (t *Training) pooled(cfg Config) ([]*kde.Bivariate, error) {
	key, _, cacheable := fitOptionsOf(cfg)
	t.mu.Lock()
	defer t.mu.Unlock()
	if cacheable {
		if m, ok := t.pooledFits[key]; ok {
			return m, nil
		}
	}
	fit := fitFunc(cfg)
	P := len(t.segments)
	pooled := make([]*kde.Bivariate, t.nSC)
	for i := 0; i < t.nSC; i++ {
		amps := make([]float64, 0, 2*P)
		phs := make([]float64, 0, 2*P)
		for j := 0; j < P; j++ {
			for s := 0; s < 2; s++ {
				amps = append(amps, t.devs[j][i][s].amp)
				phs = append(phs, t.devs[j][i][s].phase())
			}
		}
		m, err := fit(amps, phs)
		if err != nil {
			return nil, err
		}
		pooled[i] = m
	}
	if cacheable {
		if t.pooledFits == nil {
			t.pooledFits = make(map[fitOptions][]*kde.Bivariate)
		}
		t.pooledFits[key] = pooled
	}
	return pooled, nil
}

// perSegment returns one density per (segment, subcarrier) — the
// PerSegment ablation's models — fitted lazily and shared like pooled.
func (t *Training) perSegment(cfg Config) ([][]*kde.Bivariate, error) {
	key, _, cacheable := fitOptionsOf(cfg)
	t.mu.Lock()
	defer t.mu.Unlock()
	if cacheable {
		if m, ok := t.perSegFits[key]; ok {
			return m, nil
		}
	}
	fit := fitFunc(cfg)
	perSeg := make([][]*kde.Bivariate, len(t.segments))
	for j := range t.segments {
		perSeg[j] = make([]*kde.Bivariate, t.nSC)
		for i := 0; i < t.nSC; i++ {
			amps := []float64{t.devs[j][i][0].amp, t.devs[j][i][1].amp}
			phs := []float64{t.devs[j][i][0].phase(), t.devs[j][i][1].phase()}
			m, err := fit(amps, phs)
			if err != nil {
				return nil, err
			}
			perSeg[j][i] = m
		}
	}
	if cacheable {
		if t.perSegFits == nil {
			t.perSegFits = make(map[fitOptions][][]*kde.Bivariate)
		}
		t.perSegFits[key] = perSeg
	}
	return perSeg, nil
}
