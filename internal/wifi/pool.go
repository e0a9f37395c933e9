package wifi

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/channel"
	"repro/internal/dsp"
	"repro/internal/ofdm"
)

// PPDULen returns the sample length of a PPDU carrying an n-octet PSDU on
// the grid at the given MCS, without encoding it: preamble + SIGNAL +
// data symbols.
func PPDULen(g ofdm.Grid, mcs MCS, psduLen int) int {
	return ofdm.PreambleLen(g) + (1+mcs.SymbolsForPSDU(psduLen))*g.SymLen()
}

// WaveformPool is a process-wide cache of pre-encoded PPDU waveforms,
// keyed by (grid, MCS). The experiment harness's interferer tiles are
// random payloads whose only role is to radiate realistically-coded OFDM
// energy; encoding a fresh PPDU per tile per packet costs an IFFT per
// symbol and was ~20% of a Fig. 8 sweep. A pool instead pre-encodes Size
// waveforms per key from its own deterministic RNG and lets each packet
// pick tiles with a single draw from the packet RNG (Pick), so any two
// runs of the same packet seed — e.g. the sweep engine's shards and a
// direct RunPSR — select bit-identical waveforms.
//
// Because pool waveforms replace the per-tile payload/scrambler draws,
// results with a pool differ from the pool-less path (which remains the
// default and is pinned by the same-seed regression tests); they are
// statistically equivalent, and deterministic for a fixed pool seed.
//
// A WaveformPool is safe for concurrent use; entries are encoded lazily,
// once, under per-key initialisation.
type WaveformPool struct {
	size      int
	psduBytes int
	seed      int64

	mu      sync.Mutex
	entries map[poolKey]*poolEntry
}

type poolKey struct {
	grid ofdm.Grid
	mcs  string
}

type poolEntry struct {
	once  sync.Once
	ppdus []*PPDU
	err   error

	mu       sync.Mutex
	filtered map[filterKey][][]complex128
}

// filterKey identifies a multipath channel by its exact tap values, so
// channel-applied variants of pool waveforms can be cached too (the
// canonical scenarios reuse a handful of fixed tap profiles).
type filterKey string

// DefaultPoolSize is the number of pre-encoded waveforms per (grid, MCS)
// the benches use: large enough that a 2000-packet point never sees a tile
// repeated often enough to bias the PSR estimate, small enough to encode
// in milliseconds.
const DefaultPoolSize = 64

// poolPayloadBytes mirrors the 396-byte (+FCS) interferer payloads the
// pool-less path draws.
const poolPayloadBytes = 396

// NewWaveformPool returns a pool with size pre-encoded waveforms per
// (grid, MCS) key, generated from the deterministic pool seed. size <= 0
// selects DefaultPoolSize.
func NewWaveformPool(size int, seed int64) *WaveformPool {
	if size <= 0 {
		size = DefaultPoolSize
	}
	return &WaveformPool{
		size:      size,
		psduBytes: poolPayloadBytes + 4,
		seed:      seed,
		entries:   make(map[poolKey]*poolEntry),
	}
}

// Size returns the number of waveforms per key.
func (p *WaveformPool) Size() int { return p.size }

// PSDUBytes returns the PSDU size of the pooled waveforms.
func (p *WaveformPool) PSDUBytes() int { return p.psduBytes }

func (p *WaveformPool) entry(g ofdm.Grid, mcs MCS) (*poolEntry, error) {
	key := poolKey{grid: g, mcs: mcs.Name}
	p.mu.Lock()
	e, ok := p.entries[key]
	if !ok {
		e = &poolEntry{}
		p.entries[key] = e
	}
	p.mu.Unlock()

	e.once.Do(func() {
		// Entry RNG: deterministic in (pool seed, key, index) only — the
		// encoded waveforms do not depend on which packet first touches
		// the key.
		h := p.seed
		for _, v := range []int64{int64(g.NFFT), int64(g.CP), int64(g.Center), int64(mcs.Mbps)} {
			h = h*1_000_000_007 + v
		}
		ppdus := make([]*PPDU, p.size)
		for i := range ppdus {
			r := dsp.NewRand(h + int64(i)*2_654_435_761)
			cfg := TxConfig{Grid: g, MCS: mcs, ScramblerSeed: uint8(1 + r.Intn(127))}
			ppdu, err := BuildPPDU(cfg, BuildPSDU(r.Bytes(poolPayloadBytes)))
			if err != nil {
				e.err = fmt.Errorf("wifi: waveform pool: %w", err)
				return
			}
			ppdus[i] = ppdu
		}
		e.ppdus = ppdus
	})
	return e, e.err
}

// Pick selects one pooled waveform for (g, mcs) using a single r.Intn(Size)
// draw — the pool's entire consumption of the packet RNG — and returns its
// samples. The returned slice is shared and must not be modified.
func (p *WaveformPool) Pick(r *dsp.Rand, g ofdm.Grid, mcs MCS) ([]complex128, error) {
	e, err := p.entry(g, mcs)
	if err != nil {
		return nil, err
	}
	return e.ppdus[r.Intn(p.size)].Samples, nil
}

// maxFilteredProfiles bounds the distinct channel-tap profiles cached per
// (grid, MCS) entry. The canonical scenarios reuse a handful of fixed
// profiles (cache hits); sweeps that draw fresh random channels per point
// (delay-spread) would otherwise grow the cache for the lifetime of a
// long-running engine, so profiles beyond the bound are filtered on the
// fly without caching.
const maxFilteredProfiles = 16

// PickFiltered is Pick with the multipath channel pre-applied: the
// channel-filtered variant of each picked waveform is computed once per
// (key, index, taps) and cached (up to maxFilteredProfiles distinct tap
// profiles per key), so steady-state packets skip both the encode and the
// convolution. ch == nil returns the unfiltered waveform.
func (p *WaveformPool) PickFiltered(r *dsp.Rand, g ofdm.Grid, mcs MCS, ch *channel.Multipath) ([]complex128, error) {
	e, err := p.entry(g, mcs)
	if err != nil {
		return nil, err
	}
	idx := r.Intn(p.size)
	if ch == nil {
		return e.ppdus[idx].Samples, nil
	}
	// The key is built on the stack and converted to a string only when
	// a new profile is inserted, so cache hits do not allocate.
	var kb [64]byte
	fk := appendTapsKey(kb[:0], ch)
	e.mu.Lock()
	if e.filtered == nil {
		e.filtered = make(map[filterKey][][]complex128)
	}
	waves, ok := e.filtered[filterKey(fk)]
	if !ok {
		if len(e.filtered) >= maxFilteredProfiles {
			e.mu.Unlock()
			return ch.Apply(e.ppdus[idx].Samples), nil
		}
		waves = make([][]complex128, p.size)
		e.filtered[filterKey(fk)] = waves
	}
	w := waves[idx]
	e.mu.Unlock()
	if w != nil {
		return w, nil
	}
	// Convolve outside the lock; concurrent first touches of the same
	// index may duplicate the work, but both results are identical and
	// either may win the slot.
	w = ch.Apply(e.ppdus[idx].Samples)
	e.mu.Lock()
	if waves[idx] == nil {
		waves[idx] = w
	} else {
		w = waves[idx]
	}
	e.mu.Unlock()
	return w, nil
}

// appendTapsKey appends the channel taps' exact bit patterns (not rounded
// text) to b, so distinct channels never collide.
func appendTapsKey(b []byte, ch *channel.Multipath) []byte {
	for _, t := range ch.Taps {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(real(t)))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(imag(t)))
	}
	return b
}
