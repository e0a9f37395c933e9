package modem

import (
	"math"
	"math/cmplx"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/dsp"
)

var allSchemes = []Scheme{BPSK, QPSK, QAM16, QAM64, QAM256}

func TestSchemeString(t *testing.T) {
	want := map[Scheme]string{
		BPSK: "BPSK", QPSK: "QPSK", QAM16: "16-QAM", QAM64: "64-QAM", QAM256: "256-QAM",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), w)
		}
	}
	if Scheme(99).String() != "Scheme(99)" {
		t.Error("unknown scheme String")
	}
}

func TestBitsPerSymbol(t *testing.T) {
	want := map[Scheme]int{BPSK: 1, QPSK: 2, QAM16: 4, QAM64: 6, QAM256: 8}
	for s, w := range want {
		if s.BitsPerSymbol() != w {
			t.Errorf("%v.BitsPerSymbol() = %d, want %d", s, s.BitsPerSymbol(), w)
		}
		if New(s).Size() != 1<<w {
			t.Errorf("%v size = %d, want %d", s, New(s).Size(), 1<<w)
		}
	}
}

func TestUnitAveragePower(t *testing.T) {
	for _, s := range allSchemes {
		c := New(s)
		if p := c.AveragePower(); math.Abs(p-1) > 1e-12 {
			t.Errorf("%v average power = %v, want 1", s, p)
		}
	}
}

func TestKnown80211Mappings(t *testing.T) {
	// Reference points straight from IEEE 802.11-2012 Table 18-10..18-12.
	qpsk := New(QPSK)
	k := 1 / math.Sqrt2
	cases := []struct {
		bits []byte
		want complex128
	}{
		{[]byte{0, 0}, complex(-k, -k)},
		{[]byte{0, 1}, complex(-k, k)},
		{[]byte{1, 0}, complex(k, -k)},
		{[]byte{1, 1}, complex(k, k)},
	}
	for _, cse := range cases {
		if got := qpsk.Map(cse.bits); cmplx.Abs(got-cse.want) > 1e-12 {
			t.Errorf("QPSK %v = %v, want %v", cse.bits, got, cse.want)
		}
	}

	q16 := New(QAM16)
	k16 := 1 / math.Sqrt(10)
	// b0b1 selects I: 00→-3 01→-1 11→+1 10→+3 (and same for Q from b2b3).
	c16 := []struct {
		bits []byte
		want complex128
	}{
		{[]byte{0, 0, 0, 0}, complex(-3*k16, -3*k16)},
		{[]byte{0, 1, 1, 1}, complex(-1*k16, 1*k16)},
		{[]byte{1, 0, 1, 0}, complex(3*k16, 3*k16)},
		{[]byte{1, 1, 0, 1}, complex(1*k16, -1*k16)},
	}
	for _, cse := range c16 {
		if got := q16.Map(cse.bits); cmplx.Abs(got-cse.want) > 1e-12 {
			t.Errorf("16QAM %v = %v, want %v", cse.bits, got, cse.want)
		}
	}

	q64 := New(QAM64)
	k64 := 1 / math.Sqrt(42)
	// 802.11 64-QAM axis: 000→-7 001→-5 011→-3 010→-1 110→1 111→3 101→5 100→7.
	c64 := []struct {
		bits []byte
		want complex128
	}{
		{[]byte{0, 0, 0, 0, 0, 0}, complex(-7*k64, -7*k64)},
		{[]byte{0, 1, 0, 1, 1, 0}, complex(-1*k64, 1*k64)},
		{[]byte{1, 0, 0, 1, 0, 0}, complex(7*k64, 7*k64)},
		{[]byte{1, 1, 1, 0, 0, 1}, complex(3*k64, -5*k64)},
	}
	for _, cse := range c64 {
		if got := q64.Map(cse.bits); cmplx.Abs(got-cse.want) > 1e-12 {
			t.Errorf("64QAM %v = %v, want %v", cse.bits, got, cse.want)
		}
	}
}

func TestGrayNeighbourProperty(t *testing.T) {
	// Adjacent levels on each axis must differ in exactly one bit (Gray).
	for _, s := range []Scheme{QAM16, QAM64, QAM256} {
		c := New(s)
		half := c.BitsPerSymbol() / 2
		type lv struct {
			level float64
			label int
		}
		var axis []lv
		for v := 0; v < 1<<half; v++ {
			axis = append(axis, lv{grayAxis(v, half), v})
		}
		for i := range axis {
			for j := range axis {
				if axis[j].level == axis[i].level+2 {
					diff := axis[i].label ^ axis[j].label
					if bitsSet(diff) != 1 {
						t.Errorf("%v: levels %v and %v labels differ in %d bits",
							s, axis[i].level, axis[j].level, bitsSet(diff))
					}
				}
			}
		}
	}
}

func bitsSet(v int) int {
	n := 0
	for v != 0 {
		n += v & 1
		v >>= 1
	}
	return n
}

func TestMapDemapRoundTripProperty(t *testing.T) {
	for _, s := range allSchemes {
		c := New(s)
		f := func(seed int64) bool {
			r := dsp.NewRand(seed)
			bits := r.Bits(c.BitsPerSymbol() * 20)
			syms := c.MapAll(bits)
			got := c.HardDemap(syms, nil)
			if len(got) != len(bits) {
				return false
			}
			for i := range bits {
				if bits[i] != got[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Errorf("%v: %v", s, err)
		}
	}
}

func TestHardDemapWithModerateNoise(t *testing.T) {
	// Noise well below half the minimum distance must never flip a decision.
	for _, s := range allSchemes {
		c := New(s)
		r := dsp.NewRand(int64(s) + 10)
		margin := c.MinDistance() / 2 * 0.9
		for trial := 0; trial < 200; trial++ {
			idx := r.Intn(c.Size())
			angle := 2 * math.Pi * r.Float64()
			noisy := c.Point(idx) + cmplx.Rect(margin, angle)
			if got := c.Nearest(noisy); got != idx {
				t.Fatalf("%v: point %d misdecoded as %d with sub-margin noise", s, idx, got)
			}
		}
	}
}

func TestIndexBitsOfInverse(t *testing.T) {
	for _, s := range allSchemes {
		c := New(s)
		buf := make([]byte, c.BitsPerSymbol())
		for idx := 0; idx < c.Size(); idx++ {
			c.BitsOf(idx, buf)
			if got := c.Index(buf); got != idx {
				t.Fatalf("%v: Index(BitsOf(%d)) = %d", s, idx, got)
			}
		}
	}
}

func TestMapPanicsOnWrongBitCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(QPSK).Map([]byte{1})
}

func TestMapAllPanicsOnRaggedInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(QAM16).MapAll(make([]byte, 6))
}

func TestWithinRadius(t *testing.T) {
	c := New(QPSK)
	k := 1 / math.Sqrt2
	// Centre on one lattice point with a radius that excludes the others.
	got := c.WithinRadius(complex(k, k), 0.1, nil)
	if len(got) != 1 || c.Point(got[0]) != complex(k, k) {
		t.Fatalf("WithinRadius tight = %v", got)
	}
	// Large radius returns everything, sorted by distance.
	all := c.WithinRadius(complex(k, k), 10, nil)
	if len(all) != 4 {
		t.Fatalf("WithinRadius wide returned %d points", len(all))
	}
	if c.Point(all[0]) != complex(k, k) {
		t.Fatal("WithinRadius not distance-sorted")
	}
	// Empty sphere.
	if got := c.WithinRadius(complex(100, 100), 0.5, nil); len(got) != 0 {
		t.Fatalf("expected empty sphere, got %v", got)
	}
}

func TestWithinRadiusSortedProperty(t *testing.T) {
	c := New(QAM64)
	f := func(seed int64) bool {
		r := dsp.NewRand(seed)
		centre := complex(r.NormFloat64(), r.NormFloat64())
		radius := 0.2 + r.Float64()
		idxs := c.WithinRadius(centre, radius, nil)
		prev := -1.0
		for _, idx := range idxs {
			d := cmplx.Abs(c.Point(idx) - centre)
			if d > radius+1e-12 || d < prev-1e-12 {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// withinRadiusOracle is WithinRadius by definition: every lattice index
// within the radius, stably sorted by squared distance (ties keep lattice
// order).
func withinRadiusOracle(c *Constellation, centre complex128, radius float64) []int {
	var idxs []int
	for i, p := range c.Points() {
		if sqAbs(p-centre) <= radius*radius {
			idxs = append(idxs, i)
		}
	}
	sort.SliceStable(idxs, func(a, b int) bool {
		return sqAbs(c.Point(idxs[a])-centre) < sqAbs(c.Point(idxs[b])-centre)
	})
	return idxs
}

// TestWithinRadiusMatchesStableSort pins WithinRadius's exact order —
// ascending distance, ties in lattice order, which decideModelWeighted's
// first-wins tie-break relies on — against a sort.SliceStable oracle,
// including tie-heavy centres (the origin and lattice midpoints) and a
// dst that already holds entries.
func TestWithinRadiusMatchesStableSort(t *testing.T) {
	for _, s := range []Scheme{BPSK, QPSK, QAM16, QAM64} {
		c := New(s)
		dmin := c.MinDistance()
		r := dsp.NewRand(int64(s) + 1)
		centres := []complex128{0, c.Point(0), (c.Point(0) + c.Point(1)) / 2}
		for i := 0; i < 40; i++ {
			centres = append(centres, complex(r.NormFloat64(), r.NormFloat64()))
		}
		for _, centre := range centres {
			for _, radius := range []float64{0.3 * dmin, dmin, 1.5 * dmin, 10} {
				want := withinRadiusOracle(c, centre, radius)
				got := c.WithinRadius(centre, radius, []int{-7})
				if len(got) != len(want)+1 || got[0] != -7 {
					t.Fatalf("%v centre %v radius %v: got %v, want [-7] + %v", s, centre, radius, got, want)
				}
				for i, idx := range want {
					if got[i+1] != idx {
						t.Fatalf("%v centre %v radius %v: got %v, want [-7] + %v", s, centre, radius, got, want)
					}
				}
			}
		}
	}
}

func TestWithinRadiusAllocs(t *testing.T) {
	c := New(QAM64)
	dst := make([]int, 0, c.Size())
	if a := testing.AllocsPerRun(100, func() { dst = c.WithinRadius(0.3+0.2i, 0.5, dst[:0]) }); a != 0 {
		t.Fatalf("WithinRadius allocates %v times per call", a)
	}
}

func TestMinDistance(t *testing.T) {
	// For square M²-QAM with 802.11 normalisation, dmin = 2/√norm².
	want := map[Scheme]float64{
		BPSK:  2,
		QPSK:  2 / math.Sqrt(2),
		QAM16: 2 / math.Sqrt(10),
		QAM64: 2 / math.Sqrt(42),
	}
	for s, w := range want {
		if got := New(s).MinDistance(); math.Abs(got-w) > 1e-12 {
			t.Errorf("%v MinDistance = %v, want %v", s, got, w)
		}
	}
}

func TestLLRSign(t *testing.T) {
	c := New(QPSK)
	// Receive exactly on the 11 point: every LLR must be negative (bit 1).
	k := 1 / math.Sqrt2
	llrs := c.LLR([]complex128{complex(k, k)}, 0.1, nil)
	if len(llrs) != 2 {
		t.Fatalf("LLR count = %d", len(llrs))
	}
	for i, l := range llrs {
		if l >= 0 {
			t.Errorf("LLR[%d] = %v, want negative for bit 1", i, l)
		}
	}
	// And on 00: every LLR positive.
	llrs = c.LLR([]complex128{complex(-k, -k)}, 0.1, nil)
	for i, l := range llrs {
		if l <= 0 {
			t.Errorf("LLR[%d] = %v, want positive for bit 0", i, l)
		}
	}
}

func TestLLRConsistentWithHardDecision(t *testing.T) {
	for _, s := range allSchemes {
		c := New(s)
		r := dsp.NewRand(int64(s) + 99)
		for trial := 0; trial < 100; trial++ {
			rx := complex(r.NormFloat64(), r.NormFloat64())
			hard := c.BitsOf(c.Nearest(rx), nil)
			llr := c.LLR([]complex128{rx}, 0.5, nil)
			for b := range hard {
				soft := byte(0)
				if llr[b] < 0 {
					soft = 1
				}
				if llr[b] != 0 && soft != hard[b] {
					t.Fatalf("%v: LLR sign disagrees with hard decision at bit %d (rx=%v)", s, b, rx)
				}
			}
		}
	}
}

func BenchmarkNearest64QAM(b *testing.B) {
	c := New(QAM64)
	r := dsp.NewRand(1)
	rx := r.CNVector(1024, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Nearest(rx[i%len(rx)])
	}
}

func BenchmarkWithinRadius64QAM(b *testing.B) {
	c := New(QAM64)
	var dst []int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = c.WithinRadius(0.3+0.2i, 0.5, dst[:0])
	}
}

// TestMinDistanceMatchesPairwise pins the stored MinDistance of every
// scheme, bit for bit, against an O(n²) scan over all lattice pairs.
func TestMinDistanceMatchesPairwise(t *testing.T) {
	for s := BPSK; s <= QAM256; s++ {
		c := New(s)
		want := math.Inf(1)
		pts := c.Points()
		for i := range pts {
			for j := i + 1; j < len(pts); j++ {
				want = math.Min(want, cmplx.Abs(pts[i]-pts[j]))
			}
		}
		if got := c.MinDistance(); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%v: MinDistance %v, pairwise scan %v", s, got, want)
		}
	}
}

// TestNewSharedAndAllocationFree checks that New returns one value per
// scheme and allocates nothing once that value exists, and that an
// unknown scheme still panics.
func TestNewSharedAndAllocationFree(t *testing.T) {
	for s := BPSK; s <= QAM256; s++ {
		c := New(s)
		if New(s) != c {
			t.Fatalf("%v: New returned two different values", s)
		}
		if a := testing.AllocsPerRun(100, func() { c = New(s) }); a != 0 {
			t.Fatalf("%v: New allocates %v times per call", s, a)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New(QAM256+1) did not panic")
		}
	}()
	New(QAM256 + 1)
}

// TestNewConcurrent builds every constellation from many goroutines at
// once (run under -race by make test-race-sweep): all must get the same
// value.
func TestNewConcurrent(t *testing.T) {
	var got [8][QAM256 + 1]*Constellation
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := QAM256; s >= BPSK; s-- {
				got[g][s] = New(s)
				_ = got[g][s].MinDistance()
			}
		}()
	}
	wg.Wait()
	for g := range got {
		if got[g] != got[0] {
			t.Fatalf("goroutine %d saw different constellations", g)
		}
	}
}
