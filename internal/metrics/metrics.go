// Package metrics is a zero-dependency instrumentation layer: counters,
// gauges and fixed-bucket histograms held in a Registry and exposed in
// the Prometheus text format (see expose.go). The observation hot path
// is mutex-free — counters and gauges are single atomics, a histogram
// observation is one atomic bucket increment plus one CAS float add,
// and labeled children resolve through a lock-free sync.Map read — so
// instrumenting a request path costs tens of nanoseconds and zero
// allocations (BenchmarkHistogramObserve gates this in CI).
//
// Exposition is deterministic: families sort by metric name and series
// within a family sort by their label values, so the full text output
// is golden-testable.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is the metric family type as exposed in `# TYPE`.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// validName reports whether s is a metric name
// ([a-zA-Z_:][a-zA-Z0-9_:]*) or, with colon false, a label name
// ([a-zA-Z_][a-zA-Z0-9_]*). It is a byte loop rather than a regexp
// because every server construction registers a few dozen families.
func validName(s string, colon bool) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '_', 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z':
		case c == ':' && colon:
		case '0' <= c && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return s != ""
}

// DefLatencyBuckets spans 100 µs to 10 s — the service's request
// latencies range from cache hits (tens of µs) to cold campaign runs
// (seconds). Values are upper bounds in seconds; +Inf is implicit.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Registry holds metric families. The zero value is not usable;
// construct with NewRegistry. Registration takes a lock and panics on
// misuse (invalid or duplicate names, label mismatches) — registration
// happens at construction time, so these are programmer errors, not
// runtime conditions. Observation and exposition are safe for
// concurrent use.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// family is one exposed metric name: its metadata and all its series.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string  // label names, fixed at registration
	bounds []float64 // histogram upper bounds (without +Inf)

	// children maps the joined label-value key to a *Counter, *Gauge,
	// *Histogram or funcChild. Reads are lock-free; creation goes
	// through newMu so exactly one child wins per key.
	children sync.Map
	newMu    sync.Mutex
}

// funcChild is a callback series evaluated at scrape time.
type funcChild struct {
	values []string
	fn     func() float64
}

// register creates or fetches a family, checking that re-registrations
// agree on kind, help and label names.
func (r *Registry) register(name, help string, kind Kind, labels []string, bounds []float64) *family {
	if !validName(name, true) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l, false) {
			panic(fmt.Sprintf("metrics: %s: invalid label name %q", name, l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("metrics: %s: re-registered with different kind or labels", name))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: labels}
	if kind == KindHistogram {
		f.bounds = checkBounds(name, bounds)
	}
	r.fams[name] = f
	return f
}

func checkBounds(name string, bounds []float64) []float64 {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("metrics: %s: histogram needs at least one bucket bound", name))
	}
	out := make([]float64, len(bounds))
	copy(out, bounds)
	for i, b := range out {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic(fmt.Sprintf("metrics: %s: invalid bucket bound %v", name, b))
		}
		if i > 0 && b <= out[i-1] {
			panic(fmt.Sprintf("metrics: %s: bucket bounds must increase strictly", name))
		}
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// childKey joins label values into the map key. \xff cannot appear in
// UTF-8 text, so the join is unambiguous.
func childKey(values []string) string { return strings.Join(values, "\xff") }

// child fetches or creates the series for values, checking arity.
func (f *family) child(values []string, make func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s: got %d label values, want %d", f.name, len(values), len(f.labels)))
	}
	key := childKey(values)
	if c, ok := f.children.Load(key); ok {
		return c
	}
	f.newMu.Lock()
	defer f.newMu.Unlock()
	if c, ok := f.children.Load(key); ok {
		return c
	}
	c := make()
	f.children.Store(key, c)
	return c
}

// --- counter ---------------------------------------------------------------

// Counter is a monotonically increasing integer series.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, KindCounter, nil, nil)
	return f.child(nil, func() any { return &Counter{} }).(*Counter)
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, KindCounter, labels, nil)}
}

// With returns the series for the given label values, creating it on
// first use. The returned counter may be retained; repeated With calls
// with the same values return the same series.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() any { return &Counter{} }).(*Counter)
}

// CounterFunc registers a callback counter series evaluated at scrape
// time: labelPairs alternate name, value ("endpoint", "evaluate").
// Several func series may share one family when their label names
// agree. Use it to expose counters a subsystem already maintains (the
// service's request atomics, the cache's hit/miss totals) without
// double-counting.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labelPairs ...string) {
	r.funcSeries(name, help, KindCounter, fn, labelPairs)
}

// --- gauge -----------------------------------------------------------------

// Gauge is a float series that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (CAS loop; safe for concurrent use).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, KindGauge, nil, nil)
	return f.child(nil, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec registers (or fetches) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, KindGauge, labels, nil)}
}

// With returns the series for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(values, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a callback gauge series evaluated at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labelPairs ...string) {
	r.funcSeries(name, help, KindGauge, fn, labelPairs)
}

// funcSeries registers one callback series under a (possibly shared)
// family.
func (r *Registry) funcSeries(name, help string, kind Kind, fn func() float64, labelPairs []string) {
	if len(labelPairs)%2 != 0 {
		panic(fmt.Sprintf("metrics: %s: odd label pair list", name))
	}
	names := make([]string, 0, len(labelPairs)/2)
	values := make([]string, 0, len(labelPairs)/2)
	for i := 0; i < len(labelPairs); i += 2 {
		names = append(names, labelPairs[i])
		values = append(values, labelPairs[i+1])
	}
	f := r.register(name, help, kind, names, nil)
	key := childKey(values)
	f.newMu.Lock()
	defer f.newMu.Unlock()
	if _, ok := f.children.Load(key); ok {
		panic(fmt.Sprintf("metrics: %s: duplicate func series %v", name, values))
	}
	f.children.Store(key, funcChild{values: values, fn: fn})
}

// --- histogram -------------------------------------------------------------

// Histogram counts observations into fixed buckets. Buckets are stored
// non-cumulatively (each observation touches exactly one bucket
// counter) and accumulated at scrape time, so Observe is one atomic
// increment plus one CAS sum update regardless of bucket count.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records v. NaN observations are dropped (a NaN would poison
// the sum forever).
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Cumulative returns the cumulative bucket counts (one per bound, plus
// the trailing +Inf bucket, which equals Count). The snapshot is not
// atomic across buckets — concurrent observations may straddle it — but
// each bucket is itself consistent and the drift is bounded by the
// in-flight observations.
func (h *Histogram) Cumulative() []uint64 {
	out := make([]uint64, len(h.counts))
	var acc uint64
	for i := range h.counts {
		acc += h.counts[i].Load()
		out[i] = acc
	}
	return out
}

// Histogram registers (or fetches) an unlabeled histogram.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.register(name, help, KindHistogram, nil, buckets)
	return f.child(nil, func() any { return newHistogram(f.bounds) }).(*Histogram)
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec registers (or fetches) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, KindHistogram, labels, buckets)}
}

// With returns the series for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(values, func() any { return newHistogram(v.f.bounds) }).(*Histogram)
}

// --- collection ------------------------------------------------------------

// series is one collected child, sorted by key for exposition.
type series struct {
	key    string
	values []string
	child  any
}

// snapshot returns the families sorted by name and each family's series
// sorted by label values.
func (r *Registry) snapshot() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// collect returns the family's series in deterministic order.
func (f *family) collect() []series {
	var out []series
	f.children.Range(func(k, v any) bool {
		key := k.(string)
		var values []string
		if fc, ok := v.(funcChild); ok {
			values = fc.values
		} else if key != "" {
			values = strings.Split(key, "\xff")
		}
		out = append(out, series{key: key, values: values, child: v})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}
