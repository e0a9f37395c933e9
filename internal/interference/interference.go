// Package interference composes the experiment waveforms: a victim 802.11
// transmission plus one or more independently-timed interfering OFDM
// transmitters on a shared sampled band, at calibrated SIR and SNR.
//
// The composite band reproduces the paper's controlled USRP setup (§3.2):
// "contiguous subcarriers are assigned to the sender and interferer with
// [a] guardband in between. The interferer transmits the signal with a
// temporal offset that is greater than … the duration of the cyclic prefix"
// — the misalignment makes the interferer's energy smear across the
// victim's subcarriers differently in every FFT segment, which is exactly
// the structure CPRecycle exploits. Co-channel interference uses a zero
// subcarrier offset on the same band.
//
// Subcarrier spacing is 312.5 kHz on every grid (the composite band is an
// oversampled view), so subcarrier offsets translate directly to MHz.
//
// Fresh interferer tiles are synthesised windowed: a tile is a whole
// PPDU, longer than a short victim's stream and overhanging it at both
// ends, and only the part that lands in the stream (plus the channel
// filter's taps−1 samples before it) is encoded and modulated. The RNG
// draws are those of a whole-tile build, so the composite is the same
// bit for bit.
//
// Buffer ownership: Scenario.Run returns a Composite that owns its
// buffers. Scenario.RunInto reuses a caller's Composite instead — its
// Samples, InterferenceOnly and Victim.Samples are overwritten in place
// and stay valid only until the next RunInto on that Composite, and
// Composite.PSDU aliases the caller's PSDU. Scratch that never leaves a
// call (the interferer stream, fresh tiles and their PSDUs, and the
// encoder's modulator and bit buffers) comes from package-level
// sync.Pools, so concurrent RunInto calls on distinct Composites are safe
// and even Run allocates only what it returns.
package interference

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/channel"
	"repro/internal/dsp"
	"repro/internal/ofdm"
	"repro/internal/wifi"
)

// SubcarrierSpacingMHz is the 802.11a/g subcarrier spacing.
const SubcarrierSpacingMHz = 0.3125

// Interferer describes one interfering transmitter.
type Interferer struct {
	// CenterOffset is the interferer's DC subcarrier offset from the
	// victim's DC, in subcarriers (= composite bins). 0 means co-channel.
	CenterOffset int
	// SIRdB is the victim-signal-to-this-interferer power ratio.
	SIRdB float64
	// BoundaryOffset places the interferer's symbol boundaries at this
	// many samples past each victim symbol's start (victim and interferer
	// share the 4 µs symbol period, so the relative offset is constant
	// across a frame). The paper requires a temporal offset "greater than
	// … the duration of the cyclic prefix", i.e. a boundary inside the
	// victim's standard FFT window — otherwise the interferer stays
	// orthogonal and harmless. Zero draws the offset uniformly from
	// (CP, symbol length) afresh for every Run, like the free-running
	// transmitters of the testbed.
	BoundaryOffset int
	// MCS is the interferer's own modulation; zero value selects 16-QAM 1/2.
	MCS wifi.MCS
	// Channel is the interferer→receiver channel; nil means ideal.
	Channel *channel.Multipath
	// CFO is the interferer's carrier frequency offset relative to the
	// receiver, in subcarrier spacings (0.1 ≈ 31 kHz ≈ 13 ppm at 2.4 GHz).
	// Real transmitters are never frequency-locked to the victim's
	// receiver — the paper (§1, [46]) notes orthogonality only holds "in
	// perfectly synchronized systems, which rarely occurs" — and this
	// offset is what makes the interference leakage rotate differently in
	// every FFT segment. Zero draws ±[0.05, 0.2) afresh per Run.
	CFO float64
}

// Scenario describes one experiment configuration.
type Scenario struct {
	// Q is the composite band oversampling factor (1 = native 20 MHz band;
	// 4 = 80 MHz composite for adjacent-channel layouts).
	Q int
	// VictimCenter is the victim's DC bin on the composite grid.
	VictimCenter int
	// SNRdB is the AWGN level relative to the victim's received power.
	// Values ≥ 1000 disable noise.
	SNRdB float64
	// Channel is the victim→receiver channel; nil means ideal.
	Channel *channel.Multipath
	// Interferers lists the interfering transmitters (may be empty).
	Interferers []Interferer
	// Pad is the number of idle samples before the victim frame; zero
	// selects 100·Q.
	Pad int
	// Pool, when set, draws each interferer tile from the shared
	// pre-encoded waveform pool (one r.Intn draw per tile) instead of
	// encoding a fresh PPDU per tile. Deterministic per packet seed, but
	// a different draw sequence than the pool-less path — see
	// wifi.WaveformPool.
	Pool *wifi.WaveformPool
}

// Composite is one realised scenario: the received stream and ground truth.
type Composite struct {
	// Samples is the received waveform: victim + interference + noise.
	Samples []complex128
	// InterferenceOnly is the summed interference with the sender muted
	// and no noise — the Oracle's perfect knowledge.
	InterferenceOnly []complex128
	// Victim is the transmitted victim PPDU.
	Victim *wifi.PPDU
	// Grid is the victim's grid on the composite band.
	Grid ofdm.Grid
	// FrameStart is the sample index of the victim preamble.
	FrameStart int
	// PSDU is the transmitted victim PSDU.
	PSDU []byte
}

// VictimGrid returns the victim's grid for the scenario.
func (s *Scenario) VictimGrid() ofdm.Grid {
	q := s.Q
	if q < 1 {
		q = 1
	}
	return ofdm.WideGrid(64, 16, q, s.VictimCenter)
}

// InterfererGrid returns interferer i's grid.
func (s *Scenario) InterfererGrid(i int) ofdm.Grid {
	q := s.Q
	if q < 1 {
		q = 1
	}
	return ofdm.WideGrid(64, 16, q, s.VictimCenter+s.Interferers[i].CenterOffset)
}

// Run realises the scenario for one victim PSDU, drawing interferer
// payloads, victim data and noise from r. The returned Composite owns its
// buffers; Run is RunInto on a fresh Composite.
func (s *Scenario) Run(r *dsp.Rand, psdu []byte, mcs wifi.MCS) (*Composite, error) {
	c := new(Composite)
	if err := s.RunInto(c, r, psdu, mcs); err != nil {
		return nil, err
	}
	return c, nil
}

// RunInto is Run writing into c: it reuses c.Samples, c.InterferenceOnly
// and c.Victim (with its Samples) when their capacity suffices, so a
// caller that realises packet after packet into one Composite allocates
// nothing in steady state. The results stay valid until the next RunInto
// on c; c.PSDU aliases psdu. After an error c's contents are unspecified.
func (s *Scenario) RunInto(c *Composite, r *dsp.Rand, psdu []byte, mcs wifi.MCS) error {
	q := s.Q
	if q < 1 {
		q = 1
	}
	g := s.VictimGrid()
	pad := s.Pad
	if pad == 0 {
		pad = 100 * q
	}

	vcfg := wifi.TxConfig{Grid: g, MCS: mcs, ScramblerSeed: uint8(1 + r.Intn(127))}
	if c.Victim == nil {
		c.Victim = new(wifi.PPDU)
	}
	victim, err := wifi.BuildPPDUInto(c.Victim.Samples, vcfg, psdu, 0, math.MaxInt)
	if err != nil {
		return fmt.Errorf("interference: victim: %w", err)
	}
	*c.Victim = victim

	// The victim lands in the stream directly: through the channel, or
	// added onto zeros as the summed stream would receive it.
	n := len(victim.Samples)
	streamLen := pad + n + pad
	stream := resize(c.Samples, streamLen)
	clear(stream[:pad])
	clear(stream[pad+n:])
	vWave := stream[pad : pad+n]
	if s.Channel != nil {
		s.Channel.ApplyInto(vWave, victim.Samples)
	} else {
		clear(vWave)
		dsp.AddInto(vWave, victim.Samples, 0)
	}
	victimPower := dsp.Power(vWave)

	interfOnly := resize(c.InterferenceOnly, streamLen)
	clear(interfOnly)
	if len(s.Interferers) > 0 {
		sc := synthPool.Get().(*synthScratch)
		defer synthPool.Put(sc)
		sc.wave = resize(sc.wave, streamLen)
		wave := sc.wave
		victimDataStart := pad + victim.DataStart
		for i := range s.Interferers {
			if err := s.interfererWave(r, i, wave, victimDataStart, sc); err != nil {
				return err
			}
			gain := channel.GainForSIR(victimPower, dsp.Power(wave), s.Interferers[i].SIRdB)
			dsp.Scale(wave, gain)
			dsp.AddInto(interfOnly, wave, 0)
		}
	}
	for i := range interfOnly {
		stream[i] += interfOnly[i]
	}
	if s.SNRdB < 1000 {
		channel.AWGN(r, stream, channel.NoisePowerForSNR(victimPower, s.SNRdB))
	}

	c.Samples = stream
	c.InterferenceOnly = interfOnly
	c.Grid = g
	c.FrameStart = pad
	c.PSDU = psdu
	return nil
}

// freshPayloadBytes is the payload size of every pool-less interferer
// tile (a 400-byte PSDU with the FCS).
const freshPayloadBytes = 396

// synthScratch holds the buffers one RunInto needs only while it runs:
// the interferer stream, the fresh tile waveform and its PSDU. They come
// from synthPool, so even the allocating Run reuses them across calls.
type synthScratch struct {
	wave []complex128
	tile []complex128
	psdu [freshPayloadBytes + 4]byte
}

var synthPool = sync.Pool{New: func() any { return new(synthScratch) }}

// resize returns buf resliced to n samples, allocating only when its
// capacity is short. The contents are unspecified.
func resize(buf []complex128, n int) []complex128 {
	if cap(buf) < n {
		return make([]complex128, n)
	}
	return buf[:n]
}

// interfererWave writes into out a continuous stream of back-to-back PPDUs
// from interferer i covering [0, len(out)), tiled so that the interferer's
// symbol boundaries fall BoundaryOffset samples past each victim data
// symbol start. PPDU lengths are whole multiples of the symbol length, so
// the relative boundary position persists across tiles.
func (s *Scenario) interfererWave(r *dsp.Rand, i int, out []complex128, victimDataStart int, sc *synthScratch) error {
	itf := s.Interferers[i]
	g := s.InterfererGrid(i)
	mcs := itf.MCS
	if mcs.Name == "" {
		m, err := wifi.MCSByName("16-QAM 1/2")
		if err != nil {
			return err
		}
		mcs = m
	}
	symLen := g.SymLen()
	boundary := itf.BoundaryOffset
	if boundary == 0 {
		// Free-running transmitter: any offset beyond the CP, fresh per Run.
		boundary = g.CP + 1 + r.Intn(symLen-g.CP-1)
	}

	clear(out)
	if s.Pool != nil {
		// Pooled tiles: one index draw per tile, shared pre-encoded (and
		// pre-filtered) waveforms. PPDU length is known without encoding.
		ppduLen := wifi.PPDULen(g, mcs, s.Pool.PSDUBytes())
		pos := (victimDataStart+boundary)%symLen - ppduLen
		for ; pos < len(out); pos += ppduLen {
			w, err := s.Pool.PickFiltered(r, g, mcs, itf.Channel)
			if err != nil {
				return fmt.Errorf("interference: interferer %d: %w", i, err)
			}
			dsp.AddInto(out, w, pos)
		}
	} else if err := s.freshTiles(r, itf, g, mcs, out, victimDataStart, boundary, sc); err != nil {
		return fmt.Errorf("interference: interferer %d: %w", i, err)
	}
	cfo := itf.CFO
	if cfo == 0 {
		mag := 0.05 + 0.15*r.Float64()
		if r.Intn(2) == 0 {
			mag = -mag
		}
		cfo = mag
	}
	dsp.FreqShift(out, cfo, g.NFFT, 0)
	return nil
}

// freshTiles fills out with per-tile freshly-encoded PPDUs — the pool-less
// path. The RNG draw sequence (scrambler seed, then one 396-byte payload
// per tile plus one trailing payload) reproduces the original
// build-then-advance loop bit for bit, but the trailing payload — which
// that loop encoded and then discarded — is only drawn, never encoded,
// saving one full PPDU build per interferer per packet. Each tile is
// encoded into sc.tile and filtered straight into out, and only the
// part of it that lands is built: the samples that overlap out, plus
// the taps−1 before them that the channel filter reads. Tiles overhang
// both ends of a packet's stream, so at small PSDUs most of a tile is
// never synthesised.
func (s *Scenario) freshTiles(r *dsp.Rand, itf Interferer, g ofdm.Grid, mcs wifi.MCS, out []complex128, victimDataStart, boundary int, sc *synthScratch) error {
	symLen := g.SymLen()
	cfg := wifi.TxConfig{Grid: g, MCS: mcs, ScramblerSeed: uint8(1 + r.Intn(127))}
	payload := wifi.DrawPSDUInto(sc.psdu[:], r)
	ppduLen := wifi.PPDULen(g, mcs, len(payload))
	margin := 0
	if itf.Channel != nil {
		margin = len(itf.Channel.Taps) - 1
	}
	// Choose the first tile position ≡ victimDataStart+boundary (mod symLen)
	// and at or before sample 0.
	pos := (victimDataStart+boundary)%symLen - ppduLen
	for ; pos < len(out); pos += ppduLen {
		lo, hi := max(0, -pos)-margin, min(ppduLen, len(out)-pos)
		ppdu, err := wifi.BuildPPDUInto(sc.tile, cfg, payload, lo, hi)
		if err != nil {
			return err
		}
		sc.tile = ppdu.Samples
		if itf.Channel != nil {
			itf.Channel.AddInto(out, ppdu.Samples, pos)
		} else {
			dsp.AddInto(out, ppdu.Samples, pos)
		}
		// Fresh payload for the next tile.
		wifi.DrawPSDUInto(payload, r)
	}
	return nil
}

// OffsetForGuardMHz returns the interferer center offset (in subcarriers)
// that leaves the given edge-to-edge guard band, in MHz, between the
// victim's highest used subcarrier (+26) and the interferer's lowest
// (−26). A guard of 0 MHz packs the bands back to back.
func OffsetForGuardMHz(guardMHz float64) int {
	guardSC := int(guardMHz/SubcarrierSpacingMHz + 0.5)
	return 53 + guardSC
}

// GuardMHzForOffset is the inverse of OffsetForGuardMHz.
func GuardMHzForOffset(offset int) float64 {
	return float64(offset-53) * SubcarrierSpacingMHz
}

// Channel80211Offset returns the subcarrier offset corresponding to n
// 802.11 channel numbers of separation (5 MHz each): the paper's ch 8 vs
// ch 11 scenario is Channel80211Offset(3) = 48 subcarriers = 15 MHz.
func Channel80211Offset(channels int) int {
	return channels * 16 // 5 MHz / 312.5 kHz
}
