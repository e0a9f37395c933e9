package dsp

import (
	"encoding/binary"
	"math"
	"testing"
)

// Fuzz targets pinning the dispatched SIMD kernels bit-identical to the
// purego/scalar twins on arbitrary inputs. The harnesses sanitise raw
// bytes to finite float64s (the bit-exactness contract is stated for
// finite operands: NaN payload propagation through x86 vector ops
// depends on operand order, which the contract deliberately does not
// constrain), but otherwise sizes, deltas, bin selections and values are
// all fuzzer-chosen. On scalar-only machines/builds both paths coincide
// and the targets trivially pass.

// fuzzFloats derives n finite float64s from data, cycling as needed.
func fuzzFloats(data []byte, seed uint64, n int) []float64 {
	out := make([]float64, n)
	st := seed | 1
	for i := range out {
		var raw uint64
		if len(data) >= 8 {
			off := (i * 8) % len(data)
			var b [8]byte
			for j := range b {
				b[j] = data[(off+j)%len(data)]
			}
			raw = binary.LittleEndian.Uint64(b[:]) ^ st
		} else {
			raw = st
		}
		st = st*6364136223846793005 + 1442695040888963407
		f := math.Float64frombits(raw)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			// Fold the bits to a modest finite value instead.
			f = float64(int64(raw%(1<<20))-1<<19) / 1024
		}
		out[i] = f
	}
	return out
}

func planarFromFloats(re, im []float64) Planar {
	p := NewPlanar(len(re))
	copy(p.Re, re)
	copy(p.Im, im)
	return p
}

func bitsEqual(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func fuzzComparePlanar(t *testing.T, ctx string, simd, scalar Planar) {
	t.Helper()
	if !bitsEqual(simd.Re, scalar.Re) || !bitsEqual(simd.Im, scalar.Im) {
		t.Fatalf("%s: SIMD result differs from scalar twin", ctx)
	}
}

func FuzzForwardPlanar(f *testing.F) {
	f.Add(uint8(8), uint64(1), true, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(5), uint64(99), false, []byte{0xff, 0x80, 0x01})
	f.Add(uint8(1), uint64(3), true, []byte{})
	f.Fuzz(func(t *testing.T, logN uint8, seed uint64, fwd bool, data []byte) {
		n := 1 << (int(logN)%10 + 1) // 2 .. 1024
		p := MustFFTPlan(n)
		re := fuzzFloats(data, seed, n)
		im := fuzzFloats(data, seed^0xabcdef, n)
		simd := planarFromFloats(re, im)
		scalar := planarFromFloats(re, im)
		if fwd {
			p.ForwardPlanar(simd)
			forceScalarDuring(func() { p.ForwardPlanar(scalar) })
		} else {
			p.InversePlanar(simd)
			forceScalarDuring(func() { p.InversePlanar(scalar) })
		}
		fuzzComparePlanar(t, "transformPlanar", simd, scalar)
	})
}

func FuzzSlideRotatedTab(f *testing.F) {
	f.Add(uint16(256), uint8(4), int16(60), uint64(7), true, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint16(12), uint8(1), int16(-3), uint64(1), false, []byte{9})
	f.Add(uint16(100), uint8(3), int16(999), uint64(42), true, []byte{0xaa, 0x55, 0x00, 0x10})
	f.Fuzz(func(t *testing.T, nRaw uint16, mRaw uint8, delta int16, seed uint64, alias bool, data []byte) {
		n := int(nRaw)%300 + 1
		m := int(mRaw)%8 + 1
		if m > n {
			m = n
		}
		s := MustSlidingDFT(n)
		// Fuzzer-shaped bin selection: a bitmask walk over [0, n) keeps
		// bins unique and produces arbitrary mixes of dense runs and
		// scattered singletons.
		var sel []int
		for k := 0; k < n; k++ {
			if len(data) == 0 {
				break
			}
			if data[k%len(data)]>>(k%8)&1 == 1 {
				sel = append(sel, k)
			}
		}
		tab, err := s.SlideTabFor(int(delta), m, sel)
		if err != nil {
			t.Fatal(err)
		}
		binsRe := fuzzFloats(data, seed, n)
		binsIm := fuzzFloats(data, seed^0x1111, n)
		dfRe := fuzzFloats(data, seed^0x2222, m)
		dfIm := fuzzFloats(data, seed^0x3333, m)
		diffs := planarFromFloats(dfRe, dfIm)
		src := planarFromFloats(binsRe, binsIm)
		if alias {
			simd := planarFromFloats(binsRe, binsIm)
			scalar := planarFromFloats(binsRe, binsIm)
			s.SlideRotatedTab(simd, simd, diffs, tab)
			forceScalarDuring(func() { s.SlideRotatedTab(scalar, scalar, diffs, tab) })
			fuzzComparePlanar(t, "SlideRotatedTab aliased", simd, scalar)
			return
		}
		outRe := fuzzFloats(data, seed^0x4444, n)
		outIm := fuzzFloats(data, seed^0x5555, n)
		simd := planarFromFloats(outRe, outIm)
		scalar := planarFromFloats(outRe, outIm)
		s.SlideRotatedTab(simd, src, diffs, tab)
		forceScalarDuring(func() { s.SlideRotatedTab(scalar, src, diffs, tab) })
		fuzzComparePlanar(t, "SlideRotatedTab", simd, scalar)
	})
}
