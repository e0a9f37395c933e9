package experiments

// The packet-success-rate figures (Figs. 5, 8-12, 14 and the ablation /
// delay-spread studies) are declarative sweep plans — see sweep_plans.go —
// and these wrappers run them on the direct sequential path. The sweep
// engine (internal/sweep) runs the same plans sharded across a worker
// pool with shared waveform/plan caches; both paths produce bit-identical
// packet decisions for the same options.

// Options scales the packet-level experiments: Packets per measurement
// point and the base Seed. The paper transmits 2000 packets of 400 bytes
// per point; benches use smaller values (the PSR estimate converges fast).
type Options struct {
	Packets   int
	PSDUBytes int
	Seed      int64
}

// Defaults fills unset options.
func (o Options) defaults() Options {
	if o.Packets == 0 {
		o.Packets = 2000
	}
	if o.PSDUBytes == 0 {
		o.PSDUBytes = 400
	}
	return o
}

// runNamedSweep builds and sequentially runs a named sweep plan.
func runNamedSweep(name string, o Options) (*Table, error) {
	p, err := NewSweepPlan(SweepRequest{Experiment: name, Options: o})
	if err != nil {
		return nil, err
	}
	return RunSweepPlan(p)
}

// Fig5 measures packet success rate versus guard band for the Standard
// receiver, the Naive decoder and the Oracle at SIR −10/−20/−30 dB with
// QPSK 3/4 — the motivation experiment of Fig. 5a-c.
func Fig5(o Options) (*Table, error) { return runNamedSweep("fig5", o) }

// Fig8 is the single adjacent-channel interferer experiment: the paper's
// channel-11 victim with a channel-8 interferer (15 MHz / 48-subcarrier
// offset, overlapping 20 MHz channels).
func Fig8(o Options) (*Table, error) { return runNamedSweep("fig8", o) }

// Fig9 is the two-interferer ACI experiment: victim on channel 10 with
// interferers on channels 7 and 13 (±48 subcarriers).
func Fig9(o Options) (*Table, error) { return runNamedSweep("fig9", o) }

// Fig10 measures PSR versus guard band for 16-QAM 1/2 at SIR −10/−20/−30
// with and without CPRecycle — the legacy-transmitter coexistence
// experiment.
func Fig10(o Options) (*Table, error) { return runNamedSweep("fig10", o) }

// Fig11 is the single co-channel interferer experiment.
func Fig11(o Options) (*Table, error) { return runNamedSweep("fig11", o) }

// Fig12 is the two co-channel interferer experiment (equal split of the
// total interference power).
func Fig12(o Options) (*Table, error) { return runNamedSweep("fig12", o) }

// Fig14 measures PSR versus the number of FFT segments used by CPRecycle
// (as % of the CP) for 16-QAM at SIR −10/−20/−30 under ACI — the
// complexity/benefit saturation study of §6.
func Fig14(o Options) (*Table, error) { return runNamedSweep("fig14", o) }

// AblationDecision compares the decision-rule realisations (and the Naive
// and Oracle references) across an ACI SIR sweep — the design-choice study
// described on the decider types of internal/core.
func AblationDecision(o Options) (*Table, error) { return runNamedSweep("ablation-decision", o) }

// DelaySpreadSweep reproduces the §6 discussion accompanying Fig. 14:
// CPRecycle keeps recovering packets even when a large share of the cyclic
// prefix is ISI-affected. It sweeps the channel's delay spread (shrinking
// the ISI-free region from 94 % to ~40 % of the CP) under ACI at −15 dB
// with 16-QAM and reports Standard vs CPRecycle PSR.
func DelaySpreadSweep(o Options) (*Table, error) { return runNamedSweep("delay-spread", o) }

// AblationSoftDecoding compares hard-decision decoding (paper-faithful)
// with the soft-decision extension (rx.DecodeDataSoft) for both the
// standard receiver and CPRecycle across an ACI sweep.
func AblationSoftDecoding(o Options) (*Table, error) { return runNamedSweep("ablation-soft", o) }
