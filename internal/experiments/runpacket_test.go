package experiments

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"repro/internal/interference"
	"repro/internal/modem"
	"repro/internal/rx"
	"repro/internal/wifi"
)

// aciPlan is one point of Fig 8's ACI sweep (the aci-fresh benchmark
// workload's layout): QPSK 1/2 at its operating SNR, an adjacent-channel
// interferer three 802.11 channels away at sirDB, no waveform pool.
func aciPlan(tb testing.TB, sirDB float64, psduBytes, packets int, arms []ReceiverKind) *PSRPlan {
	tb.Helper()
	m, err := wifi.MCSByName("QPSK 1/2")
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := PlanPSR(LinkConfig{
		Scenario:  ACIScenario(sirDB, interference.Channel80211Offset(3), OperatingSNR(m.Name)),
		MCS:       m,
		PSDUBytes: psduBytes,
		Packets:   packets,
		Seed:      1,
		Receivers: arms,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return plan
}

// TestRunPacketConcurrentSharedPlan runs RunPacket from several goroutines
// on one shared plan, each walking the packets in a different order, and
// requires every outcome to match a serial pass. The goroutines draw
// composites, transmit scratch and decode buffers from the shared pools
// concurrently, and the Oracle arm reads the pooled interference-only
// stream, so a buffer returned to a pool while still in use shows up as
// a mismatch here or as a report under -race.
func TestRunPacketConcurrentSharedPlan(t *testing.T) {
	const packets = 6
	plan := aciPlan(t, -6, 120, packets, []ReceiverKind{Standard, Oracle, CPRecycle})
	arms := len(plan.Receivers())
	want := make([][]bool, packets)
	for pkt := range want {
		want[pkt] = make([]bool, arms)
		if err := plan.RunPacket(pkt, want[pkt]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ok := make([]bool, arms)
			for i := 0; i < packets; i++ {
				pkt := (i*(g+1) + g) % packets
				if err := plan.RunPacket(pkt, ok); err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(ok, want[pkt]) {
					t.Errorf("goroutine %d packet %d: outcomes %v, serial pass %v", g, pkt, ok, want[pkt])
				}
			}
		}(g)
	}
	wg.Wait()
}

// recordingDecider wraps one arm's decider for one packet and hashes
// every decision and soft confidence it hands to the decode.
type recordingDecider struct {
	inner rx.SymbolDecider
	sum   uint64
}

func (d *recordingDecider) add(idxs []int, conf []float64) {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], d.sum)
	h.Write(buf[:])
	for _, v := range idxs {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, c := range conf {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(c))
		h.Write(buf[:])
	}
	d.sum = h.Sum64()
}

func (d *recordingDecider) DecideSymbol(f *rx.Frame, k int, cons *modem.Constellation) ([]int, error) {
	idxs, err := d.inner.DecideSymbol(f, k, cons)
	d.add(idxs, nil)
	return idxs, err
}

func (d *recordingDecider) DecideSymbolSoft(f *rx.Frame, k int, cons *modem.Constellation) ([]int, []float64, error) {
	idxs, conf, err := d.inner.(rx.SoftSymbolDecider).DecideSymbolSoft(f, k, cons)
	d.add(idxs, conf)
	return idxs, conf, err
}

// packetOutcome is everything one packet's arms produced: success, the
// decoded PSDU and the hash of every decision and confidence.
type packetOutcome struct {
	ok    []bool
	psdus [][]byte
	sums  []uint64
}

// recordedPlan is a plan whose arms record their decisions.
type recordedPlan struct {
	*PSRPlan
	mu   sync.Mutex
	recs map[[2]int]*recordingDecider // by (packet, arm)
}

func newRecordedPlan(t *testing.T, cfg LinkConfig) *recordedPlan {
	t.Helper()
	p, err := PlanPSR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rp := &recordedPlan{PSRPlan: p, recs: map[[2]int]*recordingDecider{}}
	p.wrapDecider = func(pkt, arm int, d rx.SymbolDecider) rx.SymbolDecider {
		rec := &recordingDecider{inner: d}
		rp.mu.Lock()
		rp.recs[[2]int{pkt, arm}] = rec
		rp.mu.Unlock()
		return rec
	}
	return rp
}

// run decodes packet pkt on pb and returns its outcome.
func (rp *recordedPlan) run(t *testing.T, pb *packetBuf, pkt int) packetOutcome {
	arms := len(rp.Receivers())
	o := packetOutcome{ok: make([]bool, arms), sums: make([]uint64, arms)}
	res := make([]rx.Result, arms)
	if err := rp.runPacket(pb, pkt, o.ok, res); err != nil {
		t.Error(err)
		return o
	}
	rp.mu.Lock()
	defer rp.mu.Unlock()
	for ai := range res {
		o.psdus = append(o.psdus, slices.Clone(res[ai].PSDU))
		o.sums[ai] = rp.recs[[2]int{pkt, ai}].sum
	}
	return o
}

func (o packetOutcome) equal(p packetOutcome) bool {
	return slices.Equal(o.ok, p.ok) && slices.Equal(o.sums, p.sums) &&
		slices.EqualFunc(o.psdus, p.psdus, func(a, b []byte) bool { return string(a) == string(b) })
}

// reuseConfigs are the layouts the reuse test alternates: the Fig 8 ACI
// composite grid (Q=4) and the Fig 11 native CCI grid (Q=1), each with
// the hard, soft, and Naive plus Oracle arm sets.
func reuseConfigs(t *testing.T) []LinkConfig {
	qpsk, err := wifi.MCSByName("QPSK 1/2")
	if err != nil {
		t.Fatal(err)
	}
	qam, err := wifi.MCSByName("16-QAM 1/2")
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []LinkConfig
	for _, arms := range [][]ReceiverKind{
		{Standard, CPRecycle},
		{StandardSoft, CPRecycleSoft},
		{Naive, Oracle},
	} {
		cfgs = append(cfgs,
			LinkConfig{Scenario: ACIScenario(-8, interference.Channel80211Offset(3), OperatingSNR(qpsk.Name)),
				MCS: qpsk, PSDUBytes: 100, Packets: 3, Seed: 3, Receivers: arms},
			LinkConfig{Scenario: CCIScenario(12, OperatingSNR(qam.Name)),
				MCS: qam, PSDUBytes: 100, Packets: 3, Seed: 4, Receivers: arms})
	}
	return cfgs
}

// TestRunPacketReuseMatchesFresh decodes every packet of six plans from
// fresh state, then again through one reused packetBuf in shuffled
// order, so consecutive packets switch grid (Q=4 and Q=1) and arm set
// (hard, soft, Naive and Oracle), and then from three goroutines at once
// through the shared packet pool. Outcomes, decoded PSDUs and the hash
// of every per-symbol decision and soft confidence must match the fresh
// decode each time.
func TestRunPacketReuseMatchesFresh(t *testing.T) {
	cfgs := reuseConfigs(t)
	type job struct{ plan, pkt int }
	var jobs []job
	want := map[job]packetOutcome{}
	fresh := make([]*recordedPlan, len(cfgs))
	for pi, cfg := range cfgs {
		fresh[pi] = newRecordedPlan(t, cfg)
		for pkt := 0; pkt < cfg.Packets; pkt++ {
			j := job{pi, pkt}
			jobs = append(jobs, j)
			want[j] = fresh[pi].run(t, new(packetBuf), pkt)
		}
	}
	r := rand.New(rand.NewPCG(19, 3))
	shuffled := func() []job {
		order := slices.Clone(jobs)
		r.Shuffle(len(order), func(i, k int) { order[i], order[k] = order[k], order[i] })
		return order
	}
	check := func(who string, order []job, plans []*recordedPlan, pb func() (*packetBuf, func())) {
		for _, j := range order {
			buf, done := pb()
			got := plans[j.plan].run(t, buf, j.pkt)
			done()
			if !got.equal(want[j]) {
				t.Errorf("%s: plan %d packet %d: outcome %v sums %x, fresh decode %v sums %x",
					who, j.plan, j.pkt, got.ok, got.sums, want[j].ok, want[j].sums)
			}
		}
	}

	reused := make([]*recordedPlan, len(cfgs))
	for pi, cfg := range cfgs {
		reused[pi] = newRecordedPlan(t, cfg)
	}
	pb := new(packetBuf)
	check("reused buffer", shuffled(), reused, func() (*packetBuf, func()) { return pb, func() {} })

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		plans := make([]*recordedPlan, len(cfgs))
		for pi, cfg := range cfgs {
			plans[pi] = newRecordedPlan(t, cfg)
		}
		order := shuffled()
		wg.Add(1)
		go func() {
			defer wg.Done()
			check("pooled", order, plans, func() (*packetBuf, func()) {
				b := packetPool.Get().(*packetBuf)
				return b, func() { packetPool.Put(b) }
			})
		}()
	}
	wg.Wait()
}

// TestRunPacketAllocs pins the steady-state allocations of one packet
// through RunPacket, after a warm-up packet, at the aci-fresh −6 dB hard
// point (with the standard and cprecycle arms, and with the Naive and
// Oracle baselines) and the aci-pooled-soft −10 dB soft point: the frame,
// demodulator, training, deciders and decoded bits are all reused from
// the packet and decode pools, leaving one allocation per arm, its PSDU.
// The soft point may make two more: its waveform pool caches each
// channel-filtered tile on first pick, and 21 packets do not pick all of
// them. Skipped under -race, where sync.Pool drops items at random.
func TestRunPacketAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	for _, c := range []struct {
		name      string
		plan      *PSRPlan
		maxAllocs float64
	}{
		{"aci-fresh -6 dB", aciPlan(t, -6, 400, 64, []ReceiverKind{Standard, CPRecycle}), 2},
		{"aci -6 dB naive+oracle", aciPlan(t, -6, 400, 64, []ReceiverKind{Naive, Oracle}), 2},
		{"aci-pooled-soft -10 dB", softPlan(t), 4},
	} {
		ok := make([]bool, len(c.plan.Receivers()))
		if err := c.plan.RunPacket(0, ok); err != nil {
			t.Fatal(err)
		}
		pkt := 0
		allocs := testing.AllocsPerRun(20, func() {
			pkt++
			if err := c.plan.RunPacket(pkt%c.plan.Packets(), ok); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.1f allocs per packet", c.name, allocs)
		if allocs > c.maxAllocs {
			t.Errorf("%s: %.1f allocs per packet, want <= %v", c.name, allocs, c.maxAllocs)
		}
	}
}

// softPlan is the aci-pooled-soft workload's −10 dB point: the
// ablation-soft layout (ACI, 16-QAM 1/2), 400-byte PSDUs, interferer
// tiles from a waveform pool, and only the standard-soft and
// cprecycle-soft arms.
func softPlan(tb testing.TB) *PSRPlan {
	tb.Helper()
	sp, err := NewSweepPlan(SweepRequest{
		Experiment: "ablation-soft",
		Options:    Options{Packets: 64, PSDUBytes: 400, Seed: 1},
		Axis:       []float64{-10},
		Receivers:  []ReceiverKind{StandardSoft, CPRecycleSoft},
		Pool:       wifi.NewWaveformPool(wifi.DefaultPoolSize, 1),
	})
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := PlanPSR(sp.Points[0].Cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return plan
}

// BenchmarkRunPacketACI times whole packets — synthesis, the hard
// standard and cprecycle arms, Viterbi — at the aci-fresh workload's
// -6 dB point with 400-byte PSDUs.
func BenchmarkRunPacketACI(b *testing.B) {
	benchRunPacket(b, aciPlan(b, -6, 400, 64, []ReceiverKind{Standard, CPRecycle}))
}

// BenchmarkRunPacketAllArms times whole packets at the same aci −6 dB
// point with every receiver arm, so the Naive, Oracle, no-tracking, KDE
// and soft arms' per-packet costs show up beside the hard pair's.
func BenchmarkRunPacketAllArms(b *testing.B) {
	benchRunPacket(b, aciPlan(b, -6, 400, 64, []ReceiverKind{
		Standard, Naive, Oracle, CPRecycle, CPRecycleNoTrack, CPRecycleKDE, StandardSoft, CPRecycleSoft}))
}

// BenchmarkRunPacketSmall times whole packets the way the
// fleet-small-points workload's serial packet loop does: the Fig 8
// default axis (10 SIRs × 3 MCS, every arm of the figure), 4 packets of
// 100 bytes per point, one packet at a time, cycling over the points
// after one warm-up packet each. At 100 bytes most of every fresh
// interferer tile overhangs the composite.
func BenchmarkRunPacketSmall(b *testing.B) {
	sp, err := NewSweepPlan(SweepRequest{Experiment: "fig8", Options: Options{Packets: 4, PSDUBytes: 100, Seed: 1}})
	if err != nil {
		b.Fatal(err)
	}
	plans := make([]*PSRPlan, len(sp.Points))
	oks := make([][]bool, len(sp.Points))
	for i, pt := range sp.Points {
		if plans[i], err = PlanPSR(pt.Cfg); err != nil {
			b.Fatal(err)
		}
		oks[i] = make([]bool, len(plans[i].Receivers()))
		if err := plans[i].RunPacket(plans[i].Packets(), oks[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	n := 0
	for b.Loop() {
		pi, pkt := n%len(plans), n/len(plans)
		if err := plans[pi].RunPacket(pkt, oks[pi]); err != nil {
			b.Fatal(err)
		}
		n++
	}
}

// benchRunPacket times RunPacket over the plan's packets in turn.
func benchRunPacket(b *testing.B, plan *PSRPlan) {
	ok := make([]bool, len(plan.Receivers()))
	b.ReportAllocs()
	pkt := 0
	for b.Loop() {
		if err := plan.RunPacket(pkt%plan.Packets(), ok); err != nil {
			b.Fatal(err)
		}
		pkt++
	}
}

// BenchmarkRunPacketSoft times whole packets at the aci-pooled-soft
// workload's −10 dB point: the ablation-soft layout (ACI, 16-QAM 1/2),
// 400-byte PSDUs, interferer tiles from a waveform pool, and only the
// standard-soft and cprecycle-soft arms, so the soft decisions and the
// float Viterbi decode dominate.
func BenchmarkRunPacketSoft(b *testing.B) {
	plan := softPlan(b)
	ok := make([]bool, len(plan.Receivers()))
	// Encode the pool's waveforms before timing starts.
	if err := plan.RunPacket(0, ok); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	pkt := 0
	for b.Loop() {
		if err := plan.RunPacket(pkt%plan.Packets(), ok); err != nil {
			b.Fatal(err)
		}
		pkt++
	}
}
