package obs

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "Ops.")
	c.Inc()
	c.Add(4)
	g := r.Gauge("test_depth", "Depth.")
	g.Set(7)
	g.Add(-2)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP test_ops_total Ops.\n# TYPE test_ops_total counter\ntest_ops_total 5\n",
		"# HELP test_depth Depth.\n# TYPE test_depth gauge\ntest_depth 5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabelsRenderedSortedAndEscaped(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "T.", Label{Name: "zz", Value: "b"}, Label{Name: "aa", Value: `q"\` + "\n"})
	c.Inc()
	var b strings.Builder
	r.WritePrometheus(&b)
	want := `test_total{aa="q\"\\\n",zz="b"} 1`
	if !strings.Contains(b.String(), want+"\n") {
		t.Fatalf("want %q in:\n%s", want, b.String())
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "Latency.", []float64{0.1, 1}, Label{Name: "stage", Value: "x"})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(5)
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE test_seconds histogram\n",
		`test_seconds_bucket{le="0.1",stage="x"} 1` + "\n",
		`test_seconds_bucket{le="1",stage="x"} 3` + "\n",
		`test_seconds_bucket{le="+Inf",stage="x"} 4` + "\n",
		`test_seconds_sum{stage="x"} 6.05` + "\n",
		`test_seconds_count{stage="x"} 4` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if h.Count() != 4 {
		t.Errorf("Count = %d, want 4", h.Count())
	}
	if math.Abs(h.Sum()-6.05) > 1e-12 {
		t.Errorf("Sum = %g, want 6.05", h.Sum())
	}
}

// One family may gain label-set instances from several packages; the
// exposition must emit one HELP/TYPE header per family, then every
// instance.
func TestSharedFamilyAcrossRegistrations(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("test_stage_seconds", "Per-stage.", []float64{1}, Label{Name: "stage", Value: "observe"})
	b := r.Histogram("test_stage_seconds", "Per-stage.", []float64{1}, Label{Name: "stage", Value: "decode"})
	a.Observe(0.5)
	b.Observe(2)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	if strings.Count(out, "# TYPE test_stage_seconds histogram") != 1 {
		t.Errorf("want exactly one TYPE header:\n%s", out)
	}
	for _, want := range []string{
		`test_stage_seconds_count{stage="observe"} 1`,
		`test_stage_seconds_count{stage="decode"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", "T.", Label{Name: "k", Value: "v"})
	assertPanics(t, "duplicate label set", func() {
		r.Counter("test_total", "T.", Label{Name: "k", Value: "v"})
	})
	assertPanics(t, "type clash", func() {
		r.Gauge("test_total", "T.")
	})
}

func assertPanics(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	fn()
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "T.")
	c.Add(3)
	h := r.Histogram("test_seconds", "T.", []float64{1}, Label{Name: "stage", Value: "x"})
	h.Observe(0.25)
	snap := r.Snapshot()
	if snap["test_total"] != 3 {
		t.Errorf("test_total = %v", snap["test_total"])
	}
	if snap[`test_seconds_count{stage="x"}`] != 1 {
		t.Errorf("count = %v", snap[`test_seconds_count{stage="x"}`])
	}
	if snap[`test_seconds_sum{stage="x"}`] != 0.25 {
		t.Errorf("sum = %v", snap[`test_seconds_sum{stage="x"}`])
	}
}

func TestWriteSampleHelpers(t *testing.T) {
	var b strings.Builder
	WriteHeader(&b, "test_g", "gauge", "Multi\nline.")
	WriteSample(&b, "test_g", 1.5, Label{Name: "state", Value: "live"})
	out := b.String()
	want := "# HELP test_g Multi\\nline.\n# TYPE test_g gauge\ntest_g{state=\"live\"} 1.5\n"
	if out != want {
		t.Fatalf("got:\n%q\nwant:\n%q", out, want)
	}
}

// The hot-path contract: counter increments and histogram observes must
// not allocate.
func TestUpdatesDoNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "T.", Label{Name: "k", Value: "v"})
	h := r.Histogram("test_seconds", "T.", DurationBuckets, Label{Name: "stage", Value: "x"})
	g := r.Gauge("test_depth", "T.")
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Add(1)
		h.Observe(1.5e-4)
		h.ObserveSince(time.Now())
	}); n != 0 {
		t.Fatalf("metric updates allocate: %v allocs/op", n)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "T.", []float64{1, 2, 3})
	done := make(chan struct{})
	const per = 1000
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < per; i++ {
				h.Observe(float64(i % 5))
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if h.Count() != 4*per {
		t.Fatalf("Count = %d, want %d", h.Count(), 4*per)
	}
	wantSum := float64(4 * per / 5 * (0 + 1 + 2 + 3 + 4))
	if h.Sum() != wantSum {
		t.Fatalf("Sum = %g, want %g", h.Sum(), wantSum)
	}
}
