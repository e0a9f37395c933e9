package channel

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"repro/internal/dsp"
)

func TestIdentityChannel(t *testing.T) {
	r := dsp.NewRand(1)
	x := r.CNVector(100, 1)
	y := Identity().Apply(x)
	if dsp.MaxAbsDiff(x, y) > 1e-12 {
		t.Fatal("identity channel altered the signal")
	}
	if Identity().DelaySpread() != 0 {
		t.Fatal("identity delay spread should be 0")
	}
}

func TestNewMultipathCopiesTaps(t *testing.T) {
	taps := []complex128{1, 0.5}
	m := NewMultipath(taps)
	taps[0] = 99
	if m.Taps[0] == 99 {
		t.Fatal("NewMultipath must copy its taps")
	}
	if NewMultipath(nil).Taps[0] != 1 {
		t.Fatal("empty taps should become identity")
	}
}

func TestMultipathDelaySpread(t *testing.T) {
	m := NewMultipath([]complex128{1, 0, 0.2})
	if m.DelaySpread() != 2 {
		t.Fatalf("delay spread = %d, want 2", m.DelaySpread())
	}
}

func TestIndoor2TapUnitEnergy(t *testing.T) {
	m := Indoor2Tap()
	if e := dsp.Energy(m.Taps); math.Abs(e-1) > 1e-12 {
		t.Fatalf("energy = %v", e)
	}
	if m.DelaySpread() != 1 {
		t.Fatalf("delay spread = %d", m.DelaySpread())
	}
}

func TestExponentialProfile(t *testing.T) {
	r := dsp.NewRand(2)
	m := Exponential(r, 5, 3)
	if len(m.Taps) != 5 {
		t.Fatalf("tap count %d", len(m.Taps))
	}
	if e := dsp.Energy(m.Taps); math.Abs(e-1) > 1e-12 {
		t.Fatalf("energy = %v", e)
	}
	// Powers decay monotonically.
	for k := 1; k < 5; k++ {
		if cmplx.Abs(m.Taps[k]) >= cmplx.Abs(m.Taps[k-1]) {
			t.Fatalf("tap %d does not decay", k)
		}
	}
	if got := Exponential(r, 0, 3); len(got.Taps) != 1 {
		t.Fatal("nTaps<1 should clamp to 1")
	}
}

func TestApplyPreservesLength(t *testing.T) {
	r := dsp.NewRand(3)
	x := r.CNVector(50, 1)
	y := Indoor2Tap().Apply(x)
	if len(y) != len(x) {
		t.Fatalf("output length %d", len(y))
	}
}

func TestApplyMatchesManualConvolution(t *testing.T) {
	m := NewMultipath([]complex128{1, 0.5i})
	x := []complex128{1, 2, 3}
	y := m.Apply(x)
	want := []complex128{1, 2 + 0.5i, 3 + 1i}
	if dsp.MaxAbsDiff(y, want) > 1e-12 {
		t.Fatalf("Apply = %v, want %v", y, want)
	}
}

// TestAddIntoMatchesApplyThenAdd pins the fused filter-and-accumulate to
// dsp.AddInto of Apply's output bit for bit, at offsets that clip either
// end of the destination or miss it entirely.
func TestAddIntoMatchesApplyThenAdd(t *testing.T) {
	r := dsp.NewRand(9)
	m := Exponential(r, 4, 3)
	x := r.CNVector(50, 1)
	for _, off := range []int{-60, -50, -13, 0, 7, 30, 80, 200} {
		base := r.CNVector(80, 1)
		want := append([]complex128(nil), base...)
		dsp.AddInto(want, m.Apply(x), off)
		got := append([]complex128(nil), base...)
		m.AddInto(got, x, off)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("offset %d sample %d: %v, want %v", off, i, got[i], want[i])
			}
		}
	}
}

func TestFrequencyResponseMatchesDFT(t *testing.T) {
	m := Indoor2Tap()
	h := m.FrequencyResponse(64)
	// H[0] = sum of taps.
	var sum complex128
	for _, tp := range m.Taps {
		sum += tp
	}
	if cmplx.Abs(h[0]-sum) > 1e-9 {
		t.Fatalf("H[0] = %v, want %v", h[0], sum)
	}
	// Flat channel has flat response.
	flat := Identity().FrequencyResponse(16)
	for _, v := range flat {
		if cmplx.Abs(v-1) > 1e-9 {
			t.Fatal("identity response not flat")
		}
	}
}

func TestFrequencyResponsePanicsOnTooManyTaps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMultipath(make([]complex128, 65)).FrequencyResponse(64)
}

func TestCircularConvolutionProperty(t *testing.T) {
	// For an OFDM symbol with CP at least as long as the channel, the
	// channel acts as per-subcarrier multiplication by H[k]: the core
	// reason OFDM works, and a strong end-to-end check of Apply.
	f := func(seed int64) bool {
		r := dsp.NewRand(seed)
		const n, cp = 64, 16
		m := Exponential(r, 1+r.Intn(8), 2)
		bins := r.CNVector(n, 1)
		body := dsp.IFFT(bins)
		sym := append(append([]complex128{}, body[n-cp:]...), body...)
		rx := m.Apply(sym)
		got := dsp.FFT(rx[cp : cp+n])
		h := m.FrequencyResponse(n)
		for k := 0; k < n; k++ {
			if cmplx.Abs(got[k]-h[k]*bins[k]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestAWGNPower(t *testing.T) {
	r := dsp.NewRand(4)
	x := make([]complex128, 100000)
	AWGN(r, x, 0.5)
	if p := dsp.Power(x); math.Abs(p-0.5) > 0.02 {
		t.Fatalf("noise power = %v, want 0.5", p)
	}
	y := []complex128{1, 2}
	AWGN(r, y, 0)
	if y[0] != 1 || y[1] != 2 {
		t.Fatal("zero-power AWGN must be a no-op")
	}
}

func TestApplyCFORotation(t *testing.T) {
	x := make([]complex128, 64)
	for i := range x {
		x[i] = 1
	}
	ApplyCFO(x, 1, 64, 0) // one full subcarrier of offset
	// Should now be a tone at bin 1.
	X := dsp.FFT(x)
	if cmplx.Abs(X[1]) < 63 {
		t.Fatalf("|X[1]| = %v", cmplx.Abs(X[1]))
	}
}

func TestPhaseNoisePreservesMagnitude(t *testing.T) {
	r := dsp.NewRand(5)
	x := r.CNVector(100, 1)
	mags := make([]float64, len(x))
	for i, v := range x {
		mags[i] = cmplx.Abs(v)
	}
	ApplyPhaseNoise(r, x, 0.01)
	for i, v := range x {
		if math.Abs(cmplx.Abs(v)-mags[i]) > 1e-12 {
			t.Fatal("phase noise changed magnitude")
		}
	}
	y := []complex128{1 + 1i}
	ApplyPhaseNoise(r, y, 0)
	if y[0] != 1+1i {
		t.Fatal("zero sigma must be a no-op")
	}
}

func TestScaleToPower(t *testing.T) {
	r := dsp.NewRand(6)
	x := r.CNVector(1000, 3)
	g := ScaleToPower(x, 0.25)
	if g <= 0 {
		t.Fatal("gain should be positive")
	}
	if p := dsp.Power(x); math.Abs(p-0.25) > 1e-9 {
		t.Fatalf("power after scaling = %v", p)
	}
	zero := make([]complex128, 5)
	if g := ScaleToPower(zero, 1); g != 0 {
		t.Fatal("zero-power input should return gain 0")
	}
}

func TestGainForSIR(t *testing.T) {
	r := dsp.NewRand(7)
	sig := r.CNVector(5000, 1)
	interf := r.CNVector(5000, 4)
	g := GainForSIR(dsp.Power(sig), dsp.Power(interf), -10)
	dsp.Scale(interf, g)
	sir := dsp.DB(dsp.Power(sig) / dsp.Power(interf))
	if math.Abs(sir-(-10)) > 0.01 {
		t.Fatalf("achieved SIR = %v dB, want -10", sir)
	}
	if GainForSIR(1, 0, 0) != 0 {
		t.Fatal("zero interference power should give gain 0")
	}
}

func TestNoisePowerForSNR(t *testing.T) {
	if p := NoisePowerForSNR(1, 10); math.Abs(p-0.1) > 1e-12 {
		t.Fatalf("noise power = %v, want 0.1", p)
	}
	if p := NoisePowerForSNR(2, 3); math.Abs(p-2/math.Pow(10, 0.3)) > 1e-12 {
		t.Fatalf("noise power = %v", p)
	}
}

func BenchmarkMultipathApply(b *testing.B) {
	m := Indoor2Tap()
	x := dsp.NewRand(1).CNVector(8000, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Apply(x)
	}
}
