package metrics

import (
	"net/http/httptest"
	"strings"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "Jobs.")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("jobs_total", "Jobs."); again != c {
		t.Fatal("re-registration did not return the same series")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", "Depth.")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestVecChildrenAreDistinct(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("req_total", "Requests.", "endpoint", "status")
	v.With("evaluate", "200").Add(3)
	v.With("sweep", "200").Inc()
	if got := v.With("evaluate", "200").Value(); got != 3 {
		t.Fatalf("evaluate/200 = %d, want 3", got)
	}
	if got := v.With("sweep", "200").Value(); got != 1 {
		t.Fatalf("sweep/200 = %d, want 1", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.02, 0.5, 3} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got, want := h.Sum(), 0.005+0.01+0.02+0.5+3; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	// Bounds are inclusive upper bounds: 0.01 lands in the first bucket.
	if got := h.Cumulative(); got[0] != 2 || got[1] != 3 || got[2] != 4 || got[3] != 5 {
		t.Fatalf("cumulative = %v, want [2 3 4 5]", got)
	}
}

func TestHistogramDropsNaN(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", []float64{1})
	h.Observe(strToNaN())
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("NaN observation was recorded: count=%d sum=%v", h.Count(), h.Sum())
	}
}

func strToNaN() float64 {
	var z float64
	return z / z
}

func TestRegistrationPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"bad metric name", func(r *Registry) { r.Counter("0bad", "") }},
		{"bad label name", func(r *Registry) { r.CounterVec("ok_total", "", "0bad") }},
		{"empty metric name", func(r *Registry) { r.Counter("", "") }},
		{"colon in label name", func(r *Registry) { r.CounterVec("ok:total", "", "a:b") }},
		{"kind clash", func(r *Registry) { r.Counter("x_total", ""); r.Gauge("x_total", "") }},
		{"label clash", func(r *Registry) { r.CounterVec("y_total", "", "a"); r.CounterVec("y_total", "", "b") }},
		{"arity", func(r *Registry) { r.CounterVec("z_total", "", "a").With("1", "2") }},
		{"empty buckets", func(r *Registry) { r.Histogram("h", "", nil) }},
		{"unsorted buckets", func(r *Registry) { r.Histogram("h", "", []float64{2, 1}) }},
		{"odd pairs", func(r *Registry) { r.GaugeFunc("g", "", func() float64 { return 0 }, "only-name") }},
		{"dup func", func(r *Registry) {
			r.GaugeFunc("g", "", func() float64 { return 0 })
			r.GaugeFunc("g", "", func() float64 { return 0 })
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.fn(NewRegistry())
		})
	}
}

// TestExpositionGolden pins the full exposition text: every metric
// type, labeled and unlabeled series, func series, escaping, and the
// deterministic family/series ordering. Any formatting change must be
// deliberate.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	reqs := r.CounterVec("app_requests_total", "Requests served.", "endpoint", "status")
	reqs.With("sweep", "200").Add(2)
	reqs.With("evaluate", "200").Add(7)
	reqs.With("evaluate", "400").Inc()
	r.Gauge("app_inflight", "In-flight requests.").Set(3)
	r.GaugeFunc("app_pool_size", "Worker pool size.", func() float64 { return 8 })
	r.CounterFunc("app_cache_ops_total", "Cache operations.", func() float64 { return 11 }, "op", "hit")
	r.CounterFunc("app_cache_ops_total", "Cache operations.", func() float64 { return 4 }, "op", "miss")
	h := r.HistogramVec("app_latency_seconds", "Request latency.", []float64{0.01, 0.1}, "endpoint")
	h.With("evaluate").Observe(0.005)
	h.With("evaluate").Observe(0.05)
	h.With("evaluate").Observe(0.5)
	r.Counter("esc_total", `back\slash and
newline`).Inc()
	ql := r.GaugeVec("quoted", "Label escaping.", "path")
	ql.With(`a"b\c`).Set(1)

	const want = `# HELP app_cache_ops_total Cache operations.
# TYPE app_cache_ops_total counter
app_cache_ops_total{op="hit"} 11
app_cache_ops_total{op="miss"} 4
# HELP app_inflight In-flight requests.
# TYPE app_inflight gauge
app_inflight 3
# HELP app_latency_seconds Request latency.
# TYPE app_latency_seconds histogram
app_latency_seconds_bucket{endpoint="evaluate",le="0.01"} 1
app_latency_seconds_bucket{endpoint="evaluate",le="0.1"} 2
app_latency_seconds_bucket{endpoint="evaluate",le="+Inf"} 3
app_latency_seconds_sum{endpoint="evaluate"} 0.555
app_latency_seconds_count{endpoint="evaluate"} 3
# HELP app_pool_size Worker pool size.
# TYPE app_pool_size gauge
app_pool_size 8
# HELP app_requests_total Requests served.
# TYPE app_requests_total counter
app_requests_total{endpoint="evaluate",status="200"} 7
app_requests_total{endpoint="evaluate",status="400"} 1
app_requests_total{endpoint="sweep",status="200"} 2
# HELP esc_total back\\slash and\nnewline
# TYPE esc_total counter
esc_total 1
# HELP quoted Label escaping.
# TYPE quoted gauge
quoted{path="a\"b\\c"} 1
`
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// Byte-identical on a second scrape: ordering is deterministic, not
	// map-iteration luck.
	var sb2 strings.Builder
	if err := r.WriteText(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb.String() != sb2.String() {
		t.Error("two scrapes of an unchanged registry differ")
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("one_total", "One.").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != ContentType {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "one_total 1") {
		t.Fatalf("body missing sample:\n%s", rec.Body.String())
	}
}

func TestGoRuntimeGauges(t *testing.T) {
	r := NewRegistry()
	RegisterGoRuntime(r)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range []string{"go_goroutines", "go_memstats_heap_alloc_bytes", "go_memstats_sys_bytes", "go_gc_cycles_total"} {
		if !strings.Contains(out, "# TYPE "+name) {
			t.Errorf("missing %s in:\n%s", name, out)
		}
	}
	// Goroutine count is at least this test's goroutine.
	if !strings.Contains(out, "go_goroutines ") {
		t.Error("no go_goroutines sample")
	}
}
