// Package obs is the process-wide observability core: a dependency-free
// metrics registry exposing atomic counters, gauges and fixed-bucket
// histograms in the Prometheus text exposition format.
//
// The design contract is zero allocations and a handful of atomic
// operations on every update path: instruments are registered once at
// init (package-level vars in the packages that own them), label sets
// are rendered to strings at registration time, histogram buckets are
// fixed at construction, and Observe/Inc/Add/Set never touch the
// registry lock. The exposition path (WritePrometheus, Handler) is the
// cold side and may allocate freely.
//
// Metric naming follows the Prometheus conventions with a process-wide
// "cpr_" prefix and a subsystem segment: cpr_sweep_* for the sweep/
// packet hot path (internal/experiments, internal/rx, internal/sweep),
// cpr_dist_* for the distributed tier (internal/sweep/dist),
// cpr_store_* for the result store and cpr_history_* for the results-
// history index, with _total suffixes on counters and _seconds units on
// histograms. Label values are closed sets known at init (e.g.
// stage="observe") — never unbounded identifiers like job or worker
// ids, which belong in logs and events, not in metric cardinality.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one metric label pair, fixed at registration.
type Label struct {
	Name  string
	Value string
}

// DurationBuckets is the default histogram bucket layout for latencies:
// 1µs to 10s in a 1-2.5-5 progression, wide enough for a sub-10µs DSP
// kernel and a multi-second sweep point alike.
var DurationBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Counter is a monotonically increasing metric.
type Counter struct {
	v      atomic.Int64
	labels string
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative to keep the counter monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) labelKey() string { return c.labels }
func (c *Counter) write(w io.Writer, name string) {
	fmt.Fprintf(w, "%s%s %d\n", name, c.labels, c.v.Load())
}
func (c *Counter) snapshot(dst map[string]float64, name string) {
	dst[name+c.labels] = float64(c.v.Load())
}

// Gauge is a settable integer-valued metric.
type Gauge struct {
	v      atomic.Int64
	labels string
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) labelKey() string { return g.labels }
func (g *Gauge) write(w io.Writer, name string) {
	fmt.Fprintf(w, "%s%s %d\n", name, g.labels, g.v.Load())
}
func (g *Gauge) snapshot(dst map[string]float64, name string) {
	dst[name+g.labels] = float64(g.v.Load())
}

// Histogram is a fixed-bucket histogram. Observe is lock-free: one
// linear bucket scan (bucket counts are tiny and fixed) plus three
// atomic updates, no allocations.
type Histogram struct {
	bounds []float64      // upper bounds, ascending; +Inf is implicit
	counts []atomic.Int64 // len(bounds)+1, last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	labels string        // rendered label set, "" or `{a="b",…}`
	les    []string      // pre-rendered `le="…"` label sets per bucket
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since t0 — the span hook the
// hot paths use: h.ObserveSince(start) costs two time reads and one
// Observe.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

func (h *Histogram) labelKey() string { return h.labels }
func (h *Histogram) write(w io.Writer, name string) {
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, h.les[i], cum)
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, h.labels, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, h.labels, h.count.Load())
}
func (h *Histogram) snapshot(dst map[string]float64, name string) {
	dst[name+"_count"+h.labels] = float64(h.count.Load())
	dst[name+"_sum"+h.labels] = h.Sum()
}

// instrument is one registered metric (one label set of one family).
type instrument interface {
	labelKey() string
	write(w io.Writer, name string)
	snapshot(dst map[string]float64, name string)
}

// family groups every label set registered under one metric name.
type family struct {
	name  string
	help  string
	typ   string // "counter", "gauge", "histogram"
	insts []instrument
}

// Registry holds registered metric families in registration order.
// Registration is init-time and panics on misuse (duplicate label set,
// type clash) — a metrics wiring bug should fail loudly at startup, not
// corrupt a scrape. Updates to registered instruments never touch the
// registry.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry. Most code uses the package
// Default registry via the package-level constructors.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// Default is the process-wide registry served by Handler.
var Default = NewRegistry()

func (r *Registry) register(name, help, typ string, inst instrument) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	for _, have := range f.insts {
		if have.labelKey() == inst.labelKey() {
			panic(fmt.Sprintf("obs: duplicate registration of %s%s", name, inst.labelKey()))
		}
	}
	f.insts = append(f.insts, inst)
}

// Counter registers a counter with the given constant labels.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{labels: renderLabels(labels)}
	r.register(name, help, "counter", c)
	return c
}

// Gauge registers an integer gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{labels: renderLabels(labels)}
	r.register(name, help, "gauge", g)
	return g
}

// Histogram registers a fixed-bucket histogram; bounds must be
// ascending upper bounds (the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not ascending", name))
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
		labels: renderLabels(labels),
	}
	h.les = make([]string, len(bounds)+1)
	for i := range h.les {
		le := "+Inf"
		if i < len(bounds) {
			le = formatFloat(bounds[i])
		}
		h.les[i] = mergeLabels(labels, Label{Name: "le", Value: le})
	}
	r.register(name, help, "histogram", h)
	return h
}

// NewCounter, NewGauge and NewHistogram register on the
// Default registry.
func NewCounter(name, help string, labels ...Label) *Counter {
	return Default.Counter(name, help, labels...)
}
func NewGauge(name, help string, labels ...Label) *Gauge {
	return Default.Gauge(name, help, labels...)
}
func NewHistogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	return Default.Histogram(name, help, bounds, labels...)
}

// WritePrometheus writes every registered family in the Prometheus text
// exposition format (version 0.0.4), in registration order.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range fams {
		WriteHeader(w, f.name, f.typ, f.help)
		for _, inst := range f.insts {
			inst.write(w, f.name)
		}
	}
}

// Snapshot returns every registered series as a flat name{labels} →
// value map: counter and gauge values directly, histograms as their
// _count and _sum series. It is the cold-path feed for aggregated
// status endpoints; keys are sorted-stable only through the map's
// consumer.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	out := make(map[string]float64)
	for _, f := range fams {
		for _, inst := range f.insts {
			inst.snapshot(out, f.name)
		}
	}
	return out
}

// Snapshot flattens the Default registry.
func Snapshot() map[string]float64 { return Default.Snapshot() }

// WriteHeader writes a family's # HELP and # TYPE lines. Exported so
// per-instance collectors (a coordinator's fleet gauges, a worker's
// lease counters) can render scrape-time series next to the registry's.
func WriteHeader(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
}

// WriteSample writes one sample line with the given labels.
func WriteSample(w io.Writer, name string, value float64, labels ...Label) {
	fmt.Fprintf(w, "%s%s %s\n", name, renderLabels(labels), formatFloat(value))
}

// renderLabels renders a label set to its exposition form, sorted by
// name; "" for an empty set.
func renderLabels(labels []Label) string {
	return mergeLabels(labels)
}

// mergeLabels renders base labels plus extras, sorted by name.
func mergeLabels(base []Label, extra ...Label) string {
	all := make([]Label, 0, len(base)+len(extra))
	all = append(all, base...)
	all = append(all, extra...)
	if len(all) == 0 {
		return ""
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if !validName(l.Name) {
			panic(fmt.Sprintf("obs: invalid label name %q", l.Name))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

func escapeHelp(s string) string  { return helpEscaper.Replace(s) }
func escapeLabel(s string) string { return labelEscaper.Replace(s) }
