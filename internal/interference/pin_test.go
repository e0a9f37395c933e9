package interference

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/channel"
	"repro/internal/dsp"
	"repro/internal/wifi"
)

// pinCase is one composite layout of TestCompositePinned.
type pinCase struct {
	q, interferers, psduBytes int
	// ch is the channel on every link: "none", "2tap" (Indoor2Tap) or
	// "exp3" (a 3-tap Exponential, drawn per link from a fixed seed).
	ch string
	// pool draws the tiles from a waveform pool instead of encoding them.
	pool bool
	// boundary is every interferer's BoundaryOffset in samples per unit
	// of Q; 0 draws it per packet.
	boundary int
	want     uint64
}

// TestCompositePinned pins RunInto's output bit for bit: an FNV-64a hash
// of Samples, InterferenceOnly and Victim.Samples for layouts covering
// band factors 1 and 4, zero to two interferers (the second one at
// 64-QAM 3/4, the first at its default 16-QAM 1/2), no channel, the
// two-tap indoor channel and a three-tap exponential one, fresh and
// pooled tiles, 40- to 1500-byte PSDUs, and drawn and fixed boundary
// offsets. At Q = 1 a boundary of 59 starts the stream one sample into
// a symbol of the first tile, so the three-tap channel reads the
// sample before the symbol. One Composite is reused across the cases,
// so the pin also covers buffers left dirty by a larger packet.
func TestCompositePinned(t *testing.T) {
	m := qpsk(t)
	second, err := wifi.MCSByName("64-QAM 3/4")
	if err != nil {
		t.Fatal(err)
	}
	pool := wifi.NewWaveformPool(4, 11)
	cases := []pinCase{
		{q: 1, interferers: 0, psduBytes: 40, ch: "none", want: 0xf0f31b7cf74a4ad8},
		{q: 4, interferers: 0, psduBytes: 1500, ch: "2tap", want: 0xde14f0b0179878e7},
		{q: 1, interferers: 1, psduBytes: 100, ch: "none", want: 0x220f86d1e067d0d7},
		{q: 1, interferers: 1, psduBytes: 400, ch: "2tap", boundary: 40, want: 0x0abfba81333ff10b},
		{q: 1, interferers: 2, psduBytes: 1500, ch: "exp3", want: 0x71762c81be5ae3ab},
		{q: 1, interferers: 2, psduBytes: 40, ch: "exp3", boundary: 23, want: 0x386d0d2779eebe51},
		{q: 4, interferers: 1, psduBytes: 40, ch: "none", boundary: 40, want: 0xd962a14dcb599772},
		{q: 4, interferers: 1, psduBytes: 100, ch: "2tap", want: 0xa6f82b70cd13aafc},
		{q: 4, interferers: 1, psduBytes: 400, ch: "2tap", boundary: 40, want: 0x1fc331d9e16792b0},
		{q: 4, interferers: 1, psduBytes: 1500, ch: "exp3", want: 0x1999edd24791adb4},
		{q: 4, interferers: 2, psduBytes: 100, ch: "exp3", boundary: 63, want: 0xae7e4fa849b9c5f6},
		{q: 4, interferers: 2, psduBytes: 400, ch: "exp3", want: 0x2b57f69eecc7b342},
		{q: 4, interferers: 2, psduBytes: 1500, ch: "none", boundary: 17, want: 0x90c188dabf280d19},
		{q: 1, interferers: 1, psduBytes: 100, ch: "2tap", pool: true, boundary: 40, want: 0x877bd14265ea5d89},
		{q: 4, interferers: 1, psduBytes: 40, ch: "none", pool: true, want: 0x7dc0d0cf4d06fa13},
		{q: 4, interferers: 2, psduBytes: 400, ch: "exp3", pool: true, want: 0x0d65584d7453d070},
		{q: 1, interferers: 1, psduBytes: 100, ch: "exp3", boundary: 59, want: 0x0286865f4e05e934},
	}
	var c Composite
	for i, pc := range cases {
		s := &Scenario{Q: pc.q, SNRdB: 12}
		offset := 0
		if pc.q == 4 {
			s.VictimCenter = 128
			offset = Channel80211Offset(3)
		}
		link := func(seed int64) *channel.Multipath {
			switch pc.ch {
			case "2tap":
				return channel.Indoor2Tap()
			case "exp3":
				return channel.Exponential(dsp.NewRand(seed), 3, 4)
			}
			return nil
		}
		s.Channel = link(90)
		if pc.pool {
			s.Pool = pool
		}
		for k := 0; k < pc.interferers; k++ {
			itf := Interferer{
				CenterOffset:   offset * (1 - 2*k),
				SIRdB:          float64(k) - 4,
				BoundaryOffset: pc.boundary * pc.q,
				Channel:        link(int64(91 + k)),
			}
			if k == 1 {
				itf.MCS = second
			}
			s.Interferers = append(s.Interferers, itf)
		}
		seed := int64(500 + i)
		psdu := wifi.BuildPSDU(dsp.NewRand(seed).Bytes(pc.psduBytes - 4))
		if err := s.RunInto(&c, dsp.NewRand(seed), psdu, m); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var b [8]byte
		for _, buf := range [][]complex128{c.Samples, c.InterferenceOnly, c.Victim.Samples} {
			for _, v := range buf {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(real(v)))
				h.Write(b[:])
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(imag(v)))
				h.Write(b[:])
			}
		}
		if got := h.Sum64(); got != pc.want {
			t.Errorf("case %d %+v: composite hash %#016x, want %#016x", i, pc, got, pc.want)
		}
	}
}
