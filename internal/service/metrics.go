package service

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/ccnet/ccnet/internal/metrics"
	"github.com/ccnet/ccnet/internal/reqtrace"
	"github.com/ccnet/ccnet/internal/version"
)

// Hit classes label how a request was answered. They appear as the
// `class` label of ccserved_request_duration_seconds and as the X-Cache
// response header of the JSON endpoints.
const (
	classHit       = "hit"       // answered from the result cache
	classCoalesced = "coalesced" // shared a concurrent identical computation
	classMiss      = "miss"      // computed
	classNone      = "none"      // endpoint has no cache (healthz, stats, batch, …)
)

// serviceMetrics holds the directly-instrumented series. Counters the
// server already maintains as atomics (request totals, computes,
// coalesced, failures) and the cache's own counters are exposed through
// scrape-time callbacks instead, so /metrics and /v1/stats can never
// disagree — both read the same source.
type serviceMetrics struct {
	reg           *metrics.Registry
	requests      *metrics.HistogramVec // ccserved_request_duration_seconds{endpoint,status,class}
	inflight      *metrics.Gauge        // ccserved_inflight_requests
	activeStreams *metrics.GaugeVec     // ccserved_active_streams{endpoint}
	streamLines   *metrics.CounterVec   // ccserved_stream_lines_total{endpoint}
	busyWorkers   *metrics.Gauge        // ccserved_batch_workers_busy
}

// initMetrics builds the registry. Called once from New, after the
// cache and counters exist.
func (s *Server) initMetrics() {
	reg := metrics.NewRegistry()
	m := &serviceMetrics{reg: reg}
	m.requests = reg.HistogramVec("ccserved_request_duration_seconds",
		"Request latency by endpoint, HTTP status and cache hit class.",
		metrics.DefLatencyBuckets, "endpoint", "status", "class")
	m.inflight = reg.Gauge("ccserved_inflight_requests",
		"HTTP requests currently being served.")
	m.activeStreams = reg.GaugeVec("ccserved_active_streams",
		"NDJSON streams currently open, by endpoint.", "endpoint")
	m.streamLines = reg.CounterVec("ccserved_stream_lines_total",
		"NDJSON lines written to streaming responses, by endpoint.", "endpoint")
	m.busyWorkers = reg.Gauge("ccserved_batch_workers_busy",
		"Batch items currently executing on the parallel loop.")

	reg.GaugeFunc("ccserved_worker_pool_size",
		"Goroutines the process-wide parallel loop computes on (GOMAXPROCS), shared by every request's fan-out.",
		func() float64 { return float64(workers()) })
	reg.GaugeFunc("ccserved_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	reg.GaugeFunc("ccserved_singleflight_inflight",
		"Distinct canonical keys currently being computed.",
		func() float64 { return float64(s.flight.Inflight()) })
	reg.GaugeFunc("ccserved_build_info",
		"Always 1; the version label carries the build version.",
		func() float64 { return 1 }, "version", version.Version)

	// Request totals mirror /v1/stats: same atomics, read at scrape.
	const reqHelp = "Requests accepted per compute endpoint (including invalid ones)."
	for i := range endpoints {
		reg.CounterFunc("ccserved_requests_total", reqHelp,
			func() float64 { return float64(s.requests[i].Load()) }, "endpoint", endpoints[i].name)
	}
	reg.CounterFunc("ccserved_requests_total", reqHelp,
		func() float64 { return float64(s.batches.Load()) }, "endpoint", "batch")
	reg.CounterFunc("ccserved_batch_items_total", "Batch items accepted.",
		func() float64 { return float64(s.batchItems.Load()) })
	reg.CounterFunc("ccserved_computes_total",
		"Requests that actually computed (not cached, not coalesced).",
		func() float64 { return float64(s.computes.Load()) })
	reg.CounterFunc("ccserved_coalesced_total",
		"Requests that coalesced onto a concurrent identical computation.",
		func() float64 { return float64(s.coalesced.Load()) })
	reg.CounterFunc("ccserved_failures_total", "Requests answered with an error.",
		func() float64 { return float64(s.failures.Load()) })
	reg.CounterFunc("ccserved_response_write_errors_total",
		"Response or stream writes that failed (client disconnects).",
		func() float64 { return float64(s.writeErrors.Load()) })

	// The cache exposes exactly the counters CacheStats reports, read
	// through the same mutex — the /metrics vs /v1/stats parity test
	// pins this.
	reg.CounterFunc("ccserved_cache_hits_total", "Result-cache lookups answered.",
		func() float64 { return float64(s.cache.Stats().Hits) })
	reg.CounterFunc("ccserved_cache_alias_hits_total",
		"Result-cache hits found by body digest before decoding (included in hits).",
		func() float64 { return float64(s.cache.Stats().AliasHits) })
	reg.CounterFunc("ccserved_cache_misses_total", "Result-cache lookups missed.",
		func() float64 { return float64(s.cache.Stats().Misses) })
	reg.CounterFunc("ccserved_cache_evictions_total", "Entries evicted by the LRU bounds.",
		func() float64 { return float64(s.cache.Stats().Evictions) })
	reg.CounterFunc("ccserved_cache_expirations_total", "Entries expired by TTL.",
		func() float64 { return float64(s.cache.Stats().Expirations) })
	reg.GaugeFunc("ccserved_cache_entries", "Entries currently cached.",
		func() float64 { return float64(s.cache.Stats().Entries) })
	reg.GaugeFunc("ccserved_cache_aliases", "Body digests currently aliasing a cached entry.",
		func() float64 { return float64(s.cache.Stats().Aliases) })
	reg.GaugeFunc("ccserved_cache_bytes", "Bytes currently cached (keys + payloads + overhead).",
		func() float64 { return float64(s.cache.Stats().Bytes) })

	// Tracer counters join the same scrape-time-callback scheme so the
	// tracing layer needs no metrics dependency of its own.
	if tr := s.opt.Tracer; tr != nil {
		reg.CounterFunc("ccserved_traces_started_total", "Request traces started (sampled or not).",
			func() float64 { return float64(tr.Stats().Started) })
		reg.CounterFunc("ccserved_traces_sampled_total", "Request traces that recorded spans.",
			func() float64 { return float64(tr.Stats().Sampled) })
		reg.CounterFunc("ccserved_traces_exported_total", "Completed traces exported to the ring/sink.",
			func() float64 { return float64(tr.Stats().Exported) })
		reg.CounterFunc("ccserved_traces_slow_total", "Exported traces at or above the slow threshold.",
			func() float64 { return float64(tr.Stats().Slow) })
		reg.CounterFunc("ccserved_traces_errored_total", "Exported traces that ended in error.",
			func() float64 { return float64(tr.Stats().Errored) })
		reg.CounterFunc("ccserved_trace_spans_dropped_total", "Spans discarded by the per-trace cap.",
			func() float64 { return float64(tr.Stats().DroppedSpans) })
	}

	metrics.RegisterGoRuntime(reg)
	s.m = m
}

// Metrics exposes the registry (for tests and embedding servers).
func (s *Server) Metrics() *metrics.Registry { return s.m.reg }

// endpointLabel maps a request path to a bounded label set — unknown
// paths collapse into "other" so scrapes cannot be grown unboundedly by
// probe traffic.
func endpointLabel(path string) string {
	name := strings.TrimPrefix(path, "/v1/")
	name = strings.TrimPrefix(name, "/")
	switch name {
	case "batch", "healthz", "stats", "metrics", "version", "traces":
		return name
	}
	if rowIndex(name) >= 0 {
		return name
	}
	return "other"
}

// statusWriter captures the response status and hit class for the
// middleware, passing Flush through so the NDJSON endpoints keep
// streaming incrementally. It also rewrites the mux's own plain-text
// 404/405 bodies into the APIError envelope, so *every* non-2xx body
// the service emits has the one documented shape.
type statusWriter struct {
	http.ResponseWriter
	status   int
	hitClass string
	reqID    string
	trace    *reqtrace.Trace
	suppress bool // swallowing a replaced plain-text error body
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
		// Last moment headers can change: attach the stage breakdown of
		// everything traced so far. JSON endpoints have fully computed by
		// now; streaming endpoints commit their 200 before computing, so
		// their header carries only the pre-stream stages (documented in
		// MONITORING.md).
		if st := w.trace.ServerTiming(); st != "" {
			w.Header().Add("Server-Timing", st)
		}
	}
	// Our handlers never emit a bare 404/405 — those come from the
	// ServeMux (http.Error: text/plain). Replace the body with the
	// typed envelope and drop the plain-text writes that follow.
	if (code == http.StatusNotFound || code == http.StatusMethodNotAllowed) &&
		!w.suppress && strings.HasPrefix(w.Header().Get("Content-Type"), "text/plain") {
		w.suppress = true
		msg := "unknown endpoint"
		if code == http.StatusMethodNotAllowed {
			msg = "method not allowed"
		}
		w.Header().Set("Content-Type", "application/json")
		w.ResponseWriter.WriteHeader(code)
		b, _ := json.Marshal(APIError{Code: CodeBadRequest, Message: msg, RequestID: w.reqID})
		w.ResponseWriter.Write(append(b, '\n'))
		return
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if w.suppress {
		return len(b), nil
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) setHitClass(c string) { w.hitClass = c }

func (w *statusWriter) statusCode() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// hitClassSetter lets the streaming endpoints report their hit class to
// the middleware after the status line is already committed (a cached
// optimize answer is one NDJSON line, but the 200 went out before the
// cache was consulted). Non-HTTP writers (ccscen's stdout) simply don't
// implement it.
type hitClassSetter interface{ setHitClass(string) }

// setHitClass records class on w when the middleware is watching.
func setHitClass(w any, class string) {
	if cs, ok := w.(hitClassSetter); ok {
		cs.setHitClass(class)
	}
}

// instrument wraps the route table: request-ID generation/propagation
// (X-Request-Id accepted or minted, echoed on the response, attached to
// the context for error envelopes), the X-Shard header when the replica
// knows its shard, an in-flight gauge around the handler and one
// histogram observation per request, labeled
// by endpoint, status and hit class. The hit class comes from the
// streaming endpoints' setHitClass or the JSON endpoints' X-Cache
// header; endpoints without a cache record "none".
//
// It is also where a request's trace begins and ends: POST requests
// (the compute endpoints — probes and the observability GETs would
// only flood the ring) adopt the inbound traceparent or mint one, and
// the completed trace is exported after the handler returns.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get(RequestIDHeader)
		if id == "" {
			id = NewRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		if s.opt.ShardID != "" {
			w.Header().Set(ShardHeader, s.opt.ShardID)
		}
		ctx := WithRequestID(r.Context(), id)
		var tr *reqtrace.Trace
		if r.Method == http.MethodPost {
			ctx, tr = s.opt.Tracer.StartRequest(ctx, r.Method+" "+r.URL.Path,
				r.Header.Get(reqtrace.Header), id)
			tr.SetShard(s.opt.ShardID)
		}
		r = r.WithContext(ctx)

		s.m.inflight.Add(1)
		sw := &statusWriter{ResponseWriter: w, reqID: id, trace: tr}
		next.ServeHTTP(sw, r)
		s.m.inflight.Add(-1)
		class := sw.hitClass
		if class == "" {
			class = sw.Header().Get("X-Cache")
		}
		if class == "" {
			class = classNone
		}
		s.m.requests.With(endpointLabel(r.URL.Path), strconv.Itoa(sw.statusCode()), class).
			Observe(time.Since(start).Seconds())
		tr.End(sw.statusCode(), nil)
	})
}
