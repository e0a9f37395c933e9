// Package experiments contains the workload generators, parameter sweeps
// and measurement harnesses that regenerate every table and figure of the
// paper's evaluation (SweepExperiments and cprecycle-bench -list index
// them). Each experiment returns a Table whose rows mirror the series the
// paper plots; no paper-versus-measured record is committed yet.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/interference"
	"repro/internal/ofdm"
	"repro/internal/rx"
	"repro/internal/wifi"
)

// ReceiverKind identifies one receiver arm of a comparison.
type ReceiverKind int

// The receiver arms used across experiments.
const (
	Standard ReceiverKind = iota
	Naive
	Oracle
	CPRecycle
	CPRecycleNoTrack
	CPRecycleKDE
	// StandardSoft and CPRecycleSoft use the soft-decision Viterbi
	// extension (rx.DecodeDataSoft).
	StandardSoft
	CPRecycleSoft
)

// String names the receiver kind.
func (k ReceiverKind) String() string {
	switch k {
	case Standard:
		return "standard"
	case Naive:
		return "naive"
	case Oracle:
		return "oracle"
	case CPRecycle:
		return "cprecycle"
	case CPRecycleNoTrack:
		return "cprecycle-notrack"
	case CPRecycleKDE:
		return "cprecycle-kde"
	case StandardSoft:
		return "standard-soft"
	case CPRecycleSoft:
		return "cprecycle-soft"
	default:
		return fmt.Sprintf("ReceiverKind(%d)", int(k))
	}
}

// ParseReceiverKind maps a receiver name (as produced by
// ReceiverKind.String) back to the kind.
func ParseReceiverKind(name string) (ReceiverKind, error) {
	for k := Standard; k <= CPRecycleSoft; k++ {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("experiments: unknown receiver kind %q", name)
}

// OperatingSNR returns the calibrated operating point for an MCS — the
// paper picks the SNR at which that MCS "has the highest throughput".
func OperatingSNR(mcsName string) float64 {
	switch mcsName {
	case "BPSK 1/2":
		return 7
	case "BPSK 3/4":
		return 9
	case "QPSK 1/2":
		return 10
	case "QPSK 3/4":
		return 13
	case "16-QAM 1/2":
		return 17
	case "16-QAM 3/4":
		return 20
	case "64-QAM 2/3":
		return 25
	case "64-QAM 3/4":
		return 27
	default:
		return 20
	}
}

// LinkConfig describes one packet-success-rate measurement point.
type LinkConfig struct {
	// Scenario builds the interference layout. It is invoked once; its
	// Run method draws fresh randomness per packet.
	Scenario *interference.Scenario
	// MCS is the victim's modulation and coding scheme.
	MCS wifi.MCS
	// PSDUBytes is the victim packet size including FCS (paper: 400).
	PSDUBytes int
	// Packets is the number of packets to transmit (paper: 2000).
	Packets int
	// Seed makes the measurement reproducible.
	Seed int64
	// NumSegments is the paper's P (default 16).
	NumSegments int
	// StrideDivisor divides the native-sample segment stride; 2 enables
	// the §6 oversampling mode (segments every half native sample on an
	// oversampled composite grid). Default 1.
	StrideDivisor int
	// Receivers lists the arms to decode each packet with.
	Receivers []ReceiverKind
	// Workers bounds the packet-level parallelism (default: GOMAXPROCS).
	Workers int
	// IntraWorkers bounds the intra-packet parallelism: the number of
	// goroutines rx.DecodeDataParallel fans one packet's OFDM symbols
	// across (per decodable arm). 1 forces the serial decode; 0 picks
	// GOMAXPROCS / packet-workers, i.e. the cores packet-level sharding
	// leaves idle — so a fully occupied sweep stays serial per packet
	// while a single-packet (or worker-starved) run uses the spare cores
	// to cut latency. Decisions are bit-identical at any setting.
	IntraWorkers int
	// CoreTweak, when set, adjusts the CPRecycle configuration of the
	// CPRecycle* arms (used by the ablation benches to sweep sphere
	// radius, bandwidth selector, pooling mode, …).
	CoreTweak func(*core.Config)
}

// PSRPoint is the packet success rate of one receiver arm.
type PSRPoint struct {
	Kind ReceiverKind
	OK   int
	N    int
}

// Rate returns the success fraction.
func (p PSRPoint) Rate() float64 {
	if p.N == 0 {
		return 0
	}
	return float64(p.OK) / float64(p.N)
}

// segmentPlanFor builds the receiver's segment plan for a grid: num
// segments at native-sample stride (divided by strideDiv for the §6
// oversampling mode), clear of the channel's delay spread.
func segmentPlanFor(g ofdm.Grid, num int, ch *channel.Multipath, strideDiv int) ([]int, error) {
	q := g.NFFT / 64
	if q < 1 {
		q = 1
	}
	stride := q
	if strideDiv > 1 {
		stride = q / strideDiv
		if stride < 1 {
			stride = 1
		}
	}
	minOff := q // at least one native sample of ISI margin
	if ch != nil {
		minOff = (ch.DelaySpread() + 1) * q
	}
	if minOff > g.CP {
		minOff = g.CP
	}
	return ofdm.SegmentPlan(g.CP, stride, num, minOff)
}

// PSRPlan is a validated measurement point with every packet-invariant
// resource resolved once: normalised configuration and the receiver
// segment plan (previously recomputed per packet). It is the unit the
// sweep engine shards — RunPacket/RunRange execute any subrange of the
// point's packets, and because every packet derives its own seed from the
// packet index, any partition of [0, Packets) tallies to bit-identical
// counts.
//
// A PSRPlan is immutable and safe for concurrent RunPacket/RunRange calls
// from multiple goroutines.
type PSRPlan struct {
	cfg   LinkConfig
	segs  []int
	intra int // resolved intra-packet decode workers (≥ 1)
}

// PlanPSR validates cfg, fills defaults and computes the segment plan.
func PlanPSR(cfg LinkConfig) (*PSRPlan, error) {
	if cfg.Packets <= 0 {
		return nil, fmt.Errorf("experiments: no packets configured")
	}
	if cfg.PSDUBytes < 5 {
		return nil, fmt.Errorf("experiments: PSDU too small")
	}
	if len(cfg.Receivers) == 0 {
		return nil, fmt.Errorf("experiments: no receivers configured")
	}
	if cfg.Scenario == nil {
		return nil, fmt.Errorf("experiments: no scenario configured")
	}
	if cfg.NumSegments == 0 {
		cfg.NumSegments = 16
	}
	segs, err := segmentPlanFor(cfg.Scenario.VictimGrid(), cfg.NumSegments, cfg.Scenario.Channel, cfg.StrideDivisor)
	if err != nil {
		return nil, err
	}
	intra := cfg.IntraWorkers
	if intra <= 0 {
		// Auto: hand each packet the cores that packet-level sharding
		// leaves idle (when packets outnumber cores there are none and
		// the per-packet decode stays serial).
		pw := cfg.Workers
		if pw <= 0 {
			pw = runtime.GOMAXPROCS(0)
		}
		if pw > cfg.Packets {
			pw = cfg.Packets
		}
		intra = runtime.GOMAXPROCS(0) / pw
		if intra < 1 {
			intra = 1
		}
	}
	return &PSRPlan{cfg: cfg, segs: segs, intra: intra}, nil
}

// Config returns the plan's normalised configuration.
func (p *PSRPlan) Config() LinkConfig { return p.cfg }

// Packets returns the number of packets the point measures.
func (p *PSRPlan) Packets() int { return p.cfg.Packets }

// Receivers returns the receiver arms, in result order.
func (p *PSRPlan) Receivers() []ReceiverKind { return p.cfg.Receivers }

// RunRange executes packets [lo, hi), accumulating each arm's success
// count into okCounts (indexed like Receivers) and returning the number
// of packets executed. ctx is checked between packets, so a cancelled
// sweep stops within one packet's work.
func (p *PSRPlan) RunRange(ctx context.Context, lo, hi int, okCounts []int) (int, error) {
	if lo < 0 || hi > p.cfg.Packets || lo > hi {
		return 0, fmt.Errorf("experiments: packet range [%d,%d) outside [0,%d)", lo, hi, p.cfg.Packets)
	}
	if len(okCounts) != len(p.cfg.Receivers) {
		return 0, fmt.Errorf("experiments: %d counters for %d receivers", len(okCounts), len(p.cfg.Receivers))
	}
	ok := make([]bool, len(p.cfg.Receivers))
	n := 0
	for pkt := lo; pkt < hi; pkt++ {
		if ctx != nil {
			select {
			case <-ctx.Done():
				return n, ctx.Err()
			default:
			}
		}
		if err := p.RunPacket(pkt, ok); err != nil {
			return n, err
		}
		n++
		for i, o := range ok {
			if o {
				okCounts[i]++
			}
		}
	}
	return n, nil
}

// RunPSR measures the packet success rate of each configured receiver arm
// over cfg.Packets independent packets. Packets are distributed across
// workers; each packet uses a deterministic per-index seed so results are
// independent of scheduling.
func RunPSR(cfg LinkConfig) ([]PSRPoint, error) {
	plan, err := PlanPSR(cfg)
	if err != nil {
		return nil, err
	}
	cfg = plan.cfg
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Packets {
		workers = cfg.Packets
	}

	// tally holds one worker's counts: ok is indexed like cfg.Receivers.
	// Plain slices instead of a per-packet map keep the accounting off the
	// hot path's allocation profile.
	type tally struct {
		ok []int
		n  int
	}
	results := make([]tally, workers)
	var firstErr error
	var errMu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t := tally{ok: make([]int, len(cfg.Receivers))}
			okBuf := make([]bool, len(cfg.Receivers))
			for pkt := w; pkt < cfg.Packets; pkt += workers {
				if err := plan.RunPacket(pkt, okBuf); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
				t.n++
				for i, ok := range okBuf {
					if ok {
						t.ok[i]++
					}
				}
			}
			results[w] = t
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	out := make([]PSRPoint, 0, len(cfg.Receivers))
	for i, k := range cfg.Receivers {
		p := PSRPoint{Kind: k}
		for _, t := range results {
			if t.ok != nil {
				p.OK += t.ok[i]
			}
			p.N += t.n
		}
		out = append(out, p)
	}
	return out, nil
}

// RunPacket transmits packet pkt through the scenario and decodes it with
// every configured arm, writing each arm's packet success into ok (indexed
// like Receivers). Each packet derives its own RNG from (Seed, pkt), so
// any executor — the striding workers of RunPSR or a sweep-engine shard —
// produces identical results for the same index.
func (p *PSRPlan) RunPacket(pkt int, ok []bool) error {
	pktStart := time.Now()
	cfg := p.cfg
	r := dsp.NewRand(cfg.Seed*1_000_003 + int64(pkt))
	psdu := wifi.BuildPSDU(r.Bytes(cfg.PSDUBytes - 4))
	c, err := cfg.Scenario.Run(r, psdu, cfg.MCS)
	stageTx.ObserveSince(pktStart)
	if err != nil {
		return err
	}
	f, err := rx.NewFrame(c.Grid, c.Samples, c.FrameStart)
	if err != nil {
		return err
	}
	segs := p.segs

	// The CPRecycle arms share one preamble training pass (and, through
	// it, any KDE fits with equal options); the deviations depend only on
	// (frame, segments), so sharing is bit-identical to per-arm training.
	var training *core.Training
	for ai, k := range cfg.Receivers {
		var decider rx.SymbolDecider
		soft := false
		switch k {
		case Standard:
			decider = rx.StandardDecider{}
		case StandardSoft:
			decider = rx.StandardDecider{}
			soft = true
		case Naive:
			decider = core.NaiveDecider{Segments: segs}
		case Oracle:
			decider = &core.OracleDecider{InterferenceOnly: c.InterferenceOnly, Segments: segs}
		case CPRecycle, CPRecycleNoTrack, CPRecycleKDE, CPRecycleSoft:
			// The arm gets its own copy of the plan's segment slice:
			// CoreTweak is a public hook and must not be able to mutate
			// the shared (concurrently read) plan through the alias.
			conf := core.Config{Segments: slices.Clone(segs)}
			if k == CPRecycleNoTrack {
				conf.NoPilotTracking = true
			}
			if k == CPRecycleKDE {
				conf.Decision = core.DecisionSphereKDE
			}
			if cfg.CoreTweak != nil {
				cfg.CoreTweak(&conf)
			}
			var cpr *core.Receiver
			var err error
			if slices.Equal(conf.Segments, segs) {
				if training == nil {
					trainStart := time.Now()
					training, err = core.Train(f, segs)
					stageTrain.ObserveSince(trainStart)
					if err != nil {
						return err
					}
				}
				cpr, err = core.NewReceiverFrom(f, training, conf)
			} else {
				// A CoreTweak changed the segment plan for this arm;
				// train it independently.
				cpr, err = core.NewReceiver(f, conf)
			}
			if err != nil {
				return err
			}
			decider = cpr
			soft = k == CPRecycleSoft
		default:
			return fmt.Errorf("experiments: unknown receiver kind %d", int(k))
		}
		var res rx.Result
		var err error
		switch {
		case soft && p.intra > 1:
			// The soft path fans over the same ParallelDecider pool with
			// the same symbol-ordered merge contract; deciders whose
			// state forbids forking fall back to serial inside, so
			// results are bit-identical either way.
			res, err = rx.DecodeDataSoftParallel(f, cfg.MCS, len(psdu), decider, p.intra)
		case soft:
			res, err = rx.DecodeDataSoft(f, cfg.MCS, len(psdu), decider)
		case p.intra > 1:
			// Fan this packet's symbols across the idle cores; deciders
			// whose state forbids forking fall back to serial inside,
			// so results are bit-identical either way.
			res, err = rx.DecodeDataParallel(f, cfg.MCS, len(psdu), decider, p.intra)
		default:
			res, err = rx.DecodeData(f, cfg.MCS, len(psdu), decider)
		}
		if err != nil {
			return err
		}
		ok[ai] = res.FCSOK && string(res.PSDU) == string(psdu)
	}
	packetsTotal.Inc()
	packetSeconds.ObserveSince(pktStart)
	return nil
}

// ACIScenario builds the canonical single adjacent-channel-interferer
// layout: 4× composite band, victim centred at bin 64, interferer offset
// by the given subcarrier count at the given SIR.
func ACIScenario(sirDB float64, offsetSC int, snrDB float64) *interference.Scenario {
	return &interference.Scenario{
		Q:            4,
		VictimCenter: 64,
		SNRdB:        snrDB,
		Channel:      channel.Indoor2Tap(),
		Interferers: []interference.Interferer{
			{CenterOffset: offsetSC, SIRdB: sirDB, Channel: channel.Indoor2Tap()},
		},
	}
}

// ACIScenarioDouble places interferers on both sides (Fig. 9: the victim on
// channel 10 with interferers on channels 7 and 13, ±48 subcarriers). Each
// interferer carries the full SIR power, as in the paper's experiment.
func ACIScenarioDouble(sirDB float64, offsetSC int, snrDB float64) *interference.Scenario {
	return &interference.Scenario{
		Q:            4,
		VictimCenter: 128,
		SNRdB:        snrDB,
		Channel:      channel.Indoor2Tap(),
		Interferers: []interference.Interferer{
			{CenterOffset: offsetSC, SIRdB: sirDB, Channel: channel.Indoor2Tap()},
			{CenterOffset: -offsetSC, SIRdB: sirDB, Channel: channel.Indoor2Tap()},
		},
	}
}

// CCIScenario builds the co-channel layout (native band, zero offset).
func CCIScenario(sirDB, snrDB float64) *interference.Scenario {
	return &interference.Scenario{
		Q:       1,
		SNRdB:   snrDB,
		Channel: channel.Indoor2Tap(),
		Interferers: []interference.Interferer{
			{CenterOffset: 0, SIRdB: sirDB, Channel: channel.Indoor2Tap()},
		},
	}
}

// CCIScenarioDouble is Fig. 12's layout: two equal co-channel interferers,
// each at sirDB+3 so their sum keeps the configured total SIR ("the total
// power of the interference remains the same").
func CCIScenarioDouble(sirDB, snrDB float64) *interference.Scenario {
	return &interference.Scenario{
		Q:       1,
		SNRdB:   snrDB,
		Channel: channel.Indoor2Tap(),
		Interferers: []interference.Interferer{
			{CenterOffset: 0, SIRdB: sirDB + 3, Channel: channel.Indoor2Tap()},
			{CenterOffset: 0, SIRdB: sirDB + 3, Channel: channel.Indoor2Tap()},
		},
	}
}
