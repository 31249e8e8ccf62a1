package service

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"github.com/ccnet/ccnet/internal/metrics"
)

// scrape fetches GET /metrics and parses the exposition text into a
// map from the full series line prefix (`name{labels}`) to its value.
func scrape(t *testing.T, ts string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(ts + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.ContentType {
		t.Fatalf("content type = %q, want %q", ct, metrics.ContentType)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		var v float64
		if _, err := fmt.Sscanf(line[i+1:], "%g", &v); err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMetricsStatsParity pins the parity-by-construction guarantee:
// every counter /v1/stats reports must appear in /metrics with the same
// value, because both read the same atomics and cache mutex. Traffic
// covers a miss, a hit, and a rejected request before comparing.
func TestMetricsStatsParity(t *testing.T) {
	_, ts := newTestServer(t)

	doJSON(t, http.MethodPost, ts.URL+"/v1/evaluate", smallEvaluate, nil) // miss
	doJSON(t, http.MethodPost, ts.URL+"/v1/evaluate", smallEvaluate, nil) // hit (by body digest)
	doJSON(t, http.MethodPost, ts.URL+"/v1/sweep", smallSweep, nil)       // miss
	doJSON(t, http.MethodPost, ts.URL+"/v1/evaluate", `{"bad": true}`, nil)

	// Nothing between these two reads touches a counter: /v1/stats and
	// /metrics are not compute endpoints and don't consult the cache.
	var stats StatsResult
	if code, body := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", "", &stats); code != http.StatusOK {
		t.Fatalf("stats = %d: %s", code, body)
	}
	m := scrape(t, ts.URL)

	checks := []struct {
		series string
		want   float64
	}{
		{`ccserved_requests_total{endpoint="evaluate"}`, float64(stats.Evaluates)},
		{`ccserved_requests_total{endpoint="sweep"}`, float64(stats.Sweeps)},
		{`ccserved_requests_total{endpoint="campaign"}`, float64(stats.Campaigns)},
		{`ccserved_requests_total{endpoint="batch"}`, float64(stats.Batches)},
		{`ccserved_requests_total{endpoint="optimize"}`, float64(stats.Optimizes)},
		{`ccserved_requests_total{endpoint="performability"}`, float64(stats.Perfabs)},
		{`ccserved_batch_items_total`, float64(stats.BatchItems)},
		{`ccserved_computes_total`, float64(stats.Computes)},
		{`ccserved_coalesced_total`, float64(stats.Coalesced)},
		{`ccserved_failures_total`, float64(stats.Failures)},
		{`ccserved_response_write_errors_total`, float64(stats.WriteErrors)},
		{`ccserved_cache_hits_total`, float64(stats.Cache.Hits)},
		{`ccserved_cache_alias_hits_total`, float64(stats.Cache.AliasHits)},
		{`ccserved_cache_misses_total`, float64(stats.Cache.Misses)},
		{`ccserved_cache_evictions_total`, float64(stats.Cache.Evictions)},
		{`ccserved_cache_expirations_total`, float64(stats.Cache.Expirations)},
		{`ccserved_cache_entries`, float64(stats.Cache.Entries)},
		{`ccserved_cache_aliases`, float64(stats.Cache.Aliases)},
		{`ccserved_cache_bytes`, float64(stats.Cache.Bytes)},
		{`ccserved_worker_pool_size`, float64(stats.Workers)},
	}
	for _, c := range checks {
		got, ok := m[c.series]
		if !ok {
			t.Errorf("%s missing from /metrics", c.series)
			continue
		}
		if got != c.want {
			t.Errorf("%s = %v, /v1/stats says %v", c.series, got, c.want)
		}
	}

	// Sanity on the traffic itself, so the parity above isn't 0 == 0.
	if stats.Evaluates != 3 || stats.Sweeps != 1 || stats.Computes != 2 ||
		stats.Cache.Hits != 1 || stats.Cache.AliasHits != 1 || stats.Cache.Aliases != 2 || stats.Failures != 1 {
		t.Errorf("unexpected traffic shape: %+v", stats)
	}
}

// TestRequestHistogramClasses drives each hit class through the
// middleware and checks the per-endpoint × status × class series:
// JSON endpoints report via the X-Cache header, streaming endpoints
// via setHitClass after the status line committed, and uncached
// endpoints record class="none".
func TestRequestHistogramClasses(t *testing.T) {
	_, ts := newTestServer(t)

	doJSON(t, http.MethodPost, ts.URL+"/v1/evaluate", smallEvaluate, nil) // miss
	doJSON(t, http.MethodPost, ts.URL+"/v1/evaluate", smallEvaluate, nil) // hit
	doJSON(t, http.MethodPost, ts.URL+"/v1/evaluate", `{"bad": true}`, nil)
	doJSON(t, http.MethodGet, ts.URL+"/v1/stats", "", nil)

	doJSON(t, http.MethodPost, ts.URL+"/v1/optimize", optimizeSpec, nil) // streamed miss
	doJSON(t, http.MethodPost, ts.URL+"/v1/optimize", optimizeSpec, nil) // streamed hit

	m := scrape(t, ts.URL)
	wantCount := []struct {
		series string
		want   float64
	}{
		{`ccserved_request_duration_seconds_count{endpoint="evaluate",status="200",class="miss"}`, 1},
		{`ccserved_request_duration_seconds_count{endpoint="evaluate",status="200",class="hit"}`, 1},
		{`ccserved_request_duration_seconds_count{endpoint="evaluate",status="400",class="none"}`, 1},
		{`ccserved_request_duration_seconds_count{endpoint="stats",status="200",class="none"}`, 1},
		{`ccserved_request_duration_seconds_count{endpoint="optimize",status="200",class="miss"}`, 1},
		{`ccserved_request_duration_seconds_count{endpoint="optimize",status="200",class="hit"}`, 1},
	}
	for _, c := range wantCount {
		if got := m[c.series]; got != c.want {
			t.Errorf("%s = %v, want %v", c.series, got, c.want)
		}
	}
	// The histogram carries cumulative buckets ending in +Inf.
	infSeries := `ccserved_request_duration_seconds_bucket{endpoint="evaluate",status="200",class="miss",le="+Inf"}`
	if got := m[infSeries]; got != 1 {
		t.Errorf("%s = %v, want 1", infSeries, got)
	}
}

// TestUnknownPathsCollapseToOther keeps probe traffic from growing the
// endpoint label set without bound.
func TestUnknownPathsCollapseToOther(t *testing.T) {
	_, ts := newTestServer(t)
	if _, err := http.Get(ts.URL + "/totally/bogus"); err != nil {
		t.Fatal(err)
	}
	m := scrape(t, ts.URL)
	series := `ccserved_request_duration_seconds_count{endpoint="other",status="404",class="none"}`
	if got := m[series]; got != 1 {
		t.Errorf("%s = %v, want 1", series, got)
	}
}

// failAfterWriter errors once n bytes have been written — a client that
// hung up mid-stream.
type failAfterWriter struct {
	n       int
	written int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.written >= w.n {
		return 0, errors.New("broken pipe")
	}
	w.written += len(p)
	return len(p), nil
}

// TestStreamWriteErrorsCounted pins satellite (b): a failed NDJSON
// write aborts the stream cleanly (error returned, no panic, engine
// stops) and lands in responseWriteErrors on both surfaces.
func TestStreamWriteErrorsCounted(t *testing.T) {
	srv, ts := newTestServer(t)

	items := make([]BatchItem, 4)
	for i := range items {
		spec := fmt.Sprintf(`{"system": {"preset": "small"}, "message": {"flits": 16, "flitBytes": 128}, "lambda": %de-5}`, i+1)
		items[i] = BatchItem{ID: fmt.Sprintf("it%d", i), Kind: "evaluate", Spec: []byte(spec)}
	}
	// First line flows, then the pipe breaks.
	_, err := srv.RunBatch(context.Background(), items, &failAfterWriter{n: 1})
	if err == nil {
		t.Fatal("RunBatch with a broken writer returned nil error")
	}

	var stats StatsResult
	doJSON(t, http.MethodGet, ts.URL+"/v1/stats", "", &stats)
	if stats.WriteErrors == 0 {
		t.Error("responseWriteErrors = 0 after broken-pipe stream")
	}
	m := scrape(t, ts.URL)
	if got := m[`ccserved_response_write_errors_total`]; got != float64(stats.WriteErrors) {
		t.Errorf("write errors: /metrics %v vs /v1/stats %d", got, stats.WriteErrors)
	}
}

// TestWriteJSONErrorCounted covers the non-streaming half of satellite
// (b): writeJSON failures (client gone before the envelope flushed) are
// counted too.
func TestWriteJSONErrorCounted(t *testing.T) {
	srv := New(Options{})
	w := failingResponseWriter{}
	srv.writeJSON(w, http.StatusOK, map[string]string{"k": "v"})
	if got := srv.writeErrors.Load(); got != 1 {
		t.Errorf("writeErrors = %d, want 1", got)
	}
}

type failingResponseWriter struct{ header http.Header }

func (w failingResponseWriter) Header() http.Header {
	if w.header == nil {
		return http.Header{}
	}
	return w.header
}
func (failingResponseWriter) WriteHeader(int)           {}
func (failingResponseWriter) Write([]byte) (int, error) { return 0, errors.New("gone") }

// TestStreamGaugesAndLines checks the stream accounting: lines written
// are counted per endpoint and the active-streams gauge returns to zero
// once the response completes.
func TestStreamGaugesAndLines(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/batch", smallBatch, nil)
	if code != http.StatusOK {
		t.Fatalf("batch = %d: %s", code, body)
	}
	lines := strings.Count(strings.TrimSpace(body), "\n") + 1

	m := scrape(t, ts.URL)
	if got := m[`ccserved_stream_lines_total{endpoint="batch"}`]; got != float64(lines) {
		t.Errorf("stream lines = %v, response had %d lines", got, lines)
	}
	if got := m[`ccserved_active_streams{endpoint="batch"}`]; got != 0 {
		t.Errorf("active streams = %v after stream closed, want 0", got)
	}
	if got := m[`ccserved_inflight_requests`]; got < 0 || got > 1 {
		t.Errorf("inflight = %v, want 0 or 1 (the scrape itself)", got)
	}
}

// TestMetricsExpositionStructure asserts the scrape is parseable and
// carries the core families plus the runtime gauges, without pinning
// values that vary run to run.
func TestMetricsExpositionStructure(t *testing.T) {
	_, ts := newTestServer(t)
	doJSON(t, http.MethodPost, ts.URL+"/v1/evaluate", smallEvaluate, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	out := sb.String()
	for _, fam := range []string{
		"# TYPE ccserved_request_duration_seconds histogram",
		"# TYPE ccserved_requests_total counter",
		"# TYPE ccserved_inflight_requests gauge",
		"# TYPE ccserved_singleflight_inflight gauge",
		"# TYPE ccserved_batch_workers_busy gauge",
		"# TYPE ccserved_cache_hits_total counter",
		"# TYPE ccserved_cache_bytes gauge",
		"# TYPE ccserved_uptime_seconds gauge",
		"# TYPE ccserved_build_info gauge",
		"# TYPE go_goroutines gauge",
		"# TYPE go_gc_cycles_total counter",
	} {
		if !strings.Contains(out, fam+"\n") {
			t.Errorf("scrape missing %q", fam)
		}
	}
	if !strings.Contains(out, `ccserved_build_info{version=`) {
		t.Error("build info carries no version label")
	}
}
