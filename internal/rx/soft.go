package rx

import (
	"fmt"
	"math/cmplx"
	"sort"
	"time"

	"repro/internal/coding"
	"repro/internal/modem"
	"repro/internal/wifi"
)

// SoftSymbolDecider extends SymbolDecider with per-subcarrier decision
// confidences, enabling soft-decision Viterbi decoding. Confidences are
// non-negative relative weights: 0 marks an erasure (the decision carries
// no information), larger values mark more trustworthy subcarriers. Only
// relative magnitudes within a frame matter.
//
// Soft decoding is an extension beyond the paper (its GNU Radio receiver
// and CPRecycle's symbol-level ML output are hard-decision); it lets the
// Viterbi decoder discount the subcarriers the interference model marks as
// hopeless instead of consuming their bit errors at full weight.
type SoftSymbolDecider interface {
	SymbolDecider
	// DecideSymbolSoft returns lattice decisions plus a confidence per
	// data subcarrier.
	DecideSymbolSoft(f *Frame, symIdx int, cons *modem.Constellation) (idxs []int, conf []float64, err error)
}

// DecideSymbolSoft implements SoftSymbolDecider for the standard receiver:
// the confidence of each subcarrier is its distance margin between the two
// nearest lattice points. On the square 802.11 lattices the runner-up to
// the nearest point is always one of that point's edge neighbours
// (diagonal and farther points are never closer), so only those are
// measured. The decisions and confidences live in the Frame's decision
// slots, overwritten by the next decision on f (hard or soft).
func (StandardDecider) DecideSymbolSoft(f *Frame, symIdx int, cons *modem.Constellation) ([]int, []float64, error) {
	obs, err := f.ObserveSymbol(symIdx, f.Grid().CP)
	if err != nil {
		return nil, nil, err
	}
	idxs, conf := f.decisionSlots()
	for i, v := range obs.Data {
		idxs[i], conf[i] = standardMargin(v, cons)
	}
	return idxs, conf, nil
}

// standardMargin returns the lattice point nearest to v and its distance
// margin to the runner-up, over the minimum distance.
func standardMargin(v complex128, cons *modem.Constellation) (int, float64) {
	best := cons.Nearest(v)
	d1 := cmplx.Abs(v - cons.Point(best))
	d2 := d1
	for k, li := range cons.Neighbours(best) {
		if d := cmplx.Abs(v - cons.Point(li)); k == 0 || d < d2 {
			d2 = d
		}
	}
	return best, (d2 - d1) / cons.MinDistance()
}

// softSymbolLLRs decides symbol k on f with the soft decider and writes
// the symbol's deinterleaved per-bit weights into dst (a Ncbps-sized slot
// of the packet-wide LLR stream), using sc's per-symbol buffers.
func softSymbolLLRs(f *Frame, soft SoftSymbolDecider, k int, cons *modem.Constellation,
	il *coding.Interleaver, sc *decodeScratch, dst []float64) error {
	idxs, conf, err := soft.DecideSymbolSoft(f, k, cons)
	if err != nil {
		return err
	}
	if len(idxs) != f.DataSubcarrierCount() || len(conf) != len(idxs) {
		return fmt.Errorf("rx: soft decider returned %d/%d entries", len(idxs), len(conf))
	}
	nb := cons.BitsPerSymbol()
	sc.bits = resize(sc.bits, nb)
	sc.blk = resize(sc.blk, len(dst))
	w := sc.normalize(conf)
	for i, idx := range idxs {
		cons.BitsOf(idx, sc.bits)
		for b, bit := range sc.bits {
			v := w[i]
			if bit == 1 {
				v = -v
			}
			sc.blk[i*nb+b] = v
		}
	}
	il.DeinterleaveLLRInto(dst, sc.blk)
	return nil
}

// decodeLLRData runs the soft Viterbi over a packet's assembled LLR
// stream sc.llrs into sc.info and finishes the PSDU.
func decodeLLRData(sc *decodeScratch, mcs wifi.MCS, psduLen, nSyms int) (Result, error) {
	defer stageDecode.ObserveSince(time.Now())
	nInfo := nSyms * mcs.Ndbps
	vit := coding.NewViterbi()
	bits, err := vit.DecodePuncturedAnchored(sc.info, sc.llrs, mcs.Rate, nInfo, wifi.DataAnchorBit(psduLen, nInfo))
	if err != nil {
		return Result{}, err
	}
	sc.info = bits
	return finishData(bits, psduLen)
}

// DecodeDataSoft mirrors DecodeData but uses the decider's per-subcarrier
// confidences as bit weights for the Viterbi decoder. Deciders that do not
// implement SoftSymbolDecider fall back to hard (unit-weight) decoding.
func DecodeDataSoft(f *Frame, mcs wifi.MCS, psduLen int, decider SymbolDecider) (Result, error) {
	return decodeData(f, mcs, psduLen, decider, true)
}

// normalize maps raw confidences to weights with median 1, clipped to
// [0, 4] so a few very confident subcarriers cannot drown the rest of the
// trellis. The weights live in s.w until the next call.
func (s *decodeScratch) normalize(conf []float64) []float64 {
	s.sorted = append(s.sorted[:0], conf...)
	sort.Float64s(s.sorted)
	med := s.sorted[len(s.sorted)/2]
	if med <= 1e-9 {
		med = 1e-9
	}
	s.w = resize(s.w, len(conf))
	for i, c := range conf {
		w := c / med
		if w < 0 {
			w = 0
		}
		if w > 4 {
			w = 4
		}
		s.w[i] = w
	}
	return s.w
}
