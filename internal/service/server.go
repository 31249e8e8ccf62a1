package service

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/ccnet/ccnet/internal/batch"
	"github.com/ccnet/ccnet/internal/canon"
	"github.com/ccnet/ccnet/internal/cluster"
	"github.com/ccnet/ccnet/internal/core"
	"github.com/ccnet/ccnet/internal/reqtrace"
	"github.com/ccnet/ccnet/internal/scenario"
	"github.com/ccnet/ccnet/internal/version"
)

// maxBodyBytes bounds request bodies; scenario specs are a few KB.
const maxBodyBytes = 1 << 20

// Options configure a Server. The zero value gets the documented
// defaults.
type Options struct {
	// CacheEntries and CacheBytes bound the result cache (defaults 1024
	// entries, 64 MiB). CacheTTL expires entries after insertion
	// (default 15 minutes; negative disables expiry).
	CacheEntries int
	CacheBytes   int64
	CacheTTL     time.Duration
	// ShardID names this replica when it serves behind ccrouter: it is
	// echoed in /v1/healthz, /v1/version and the X-Shard response
	// header so a routed answer is attributable to its shard.
	ShardID string
	// Log, when set, receives one structured line per failed request
	// (status, code, request and trace IDs). ccserved builds it with
	// reqtrace.NewLogger.
	Log *slog.Logger
	// Tracer records request traces: stage spans on every sampled POST,
	// Server-Timing response headers, and the GET /v1/traces export.
	// nil disables tracing entirely (all hooks are no-ops).
	Tracer *reqtrace.Tracer
}

// Server serves the analytical model and scenario engine over HTTP.
// Construct with New; serve via Handler.
type Server struct {
	opt    Options
	cache  *Cache
	flight flightGroup
	start  time.Time

	// exec, when set, computes each batch item in place of
	// execBatchItem; streaming tests substitute gated executors.
	exec func(ctx context.Context, index int, it BatchItem) batchOutcome

	// requests counts the requests accepted per endpoint-table row.
	requests    [len(endpoints)]atomic.Uint64
	batches     atomic.Uint64
	batchItems  atomic.Uint64
	computes    atomic.Uint64
	coalesced   atomic.Uint64
	failures    atomic.Uint64
	writeErrors atomic.Uint64

	// m is the /metrics registry and the directly-instrumented series;
	// built once by initMetrics.
	m *serviceMetrics
}

// New builds a Server, applying defaults for zero Options fields.
func New(opt Options) *Server {
	if opt.CacheEntries == 0 {
		opt.CacheEntries = 1024
	}
	if opt.CacheBytes == 0 {
		opt.CacheBytes = 64 << 20
	}
	if opt.CacheTTL == 0 {
		opt.CacheTTL = 15 * time.Minute
	}
	s := &Server{
		opt:   opt,
		cache: NewCache(opt.CacheEntries, opt.CacheBytes, opt.CacheTTL),
		start: time.Now(),
	}
	s.initMetrics()
	return s
}

// Cache exposes the result cache (for stats and tests).
func (s *Server) Cache() *Cache { return s.cache }

// Computes returns how many requests actually computed (cache misses
// that were not coalesced onto another in-flight request).
func (s *Server) Computes() uint64 { return s.computes.Load() }

// Handler returns the route table:
//
//	POST /v1/evaluate   one analytical evaluation at a single rate
//	POST /v1/sweep      an analytical sweep over a lambda grid
//	POST /v1/campaign   a full scenario spec (same JSON as ccscen files)
//	POST /v1/batch      a batch of evaluate/sweep/campaign/performability/
//	                    fleetsim items (NDJSON stream)
//	POST /v1/optimize   a design-space search spec (NDJSON progress + frontier)
//	POST /v1/performability  a scenario spec with a performability block
//	                    (NDJSON progress + report)
//	POST /v1/fleetsim   a kind "fleetsim" scenario spec (NDJSON epoch
//	                    stream + report)
//	GET  /v1/healthz    liveness + version
//	GET  /v1/version    build version, API/schema versions, shard ID
//	GET  /v1/stats      request and cache counters
//	GET  /v1/traces     completed sampled request traces (NDJSON ring)
//	GET  /metrics       Prometheus text exposition
//
// Every route runs through the instrumentation middleware: request-ID
// generation/propagation, an in-flight gauge and a per-endpoint ×
// status × hit-class latency histogram. Every non-2xx response body is
// an APIError.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/version", s.handleVersion)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.Handle("GET /metrics", s.m.reg.Handler())
	mux.Handle("GET /v1/traces", s.opt.Tracer.Handler())
	for i := range endpoints {
		mux.HandleFunc("POST /v1/"+endpoints[i].name, s.handle(i))
	}
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	return s.instrument(mux)
}

// --- request/response types ----------------------------------------------

// MessageJSON is the message geometry of an evaluate/sweep request.
type MessageJSON struct {
	Flits     int `json:"flits"`
	FlitBytes int `json:"flitBytes"`
}

func (m *MessageJSON) validate() []error {
	var errs []error
	if m.Flits <= 0 {
		errs = append(errs, fmt.Errorf("message.flits: must be positive, got %d", m.Flits))
	}
	if m.FlitBytes <= 0 {
		errs = append(errs, fmt.Errorf("message.flitBytes: must be positive, got %d", m.FlitBytes))
	}
	return errs
}

// EvaluateRequest is the body of POST /v1/evaluate: one system, one
// message geometry, one traffic rate. The system and model sections use
// the scenario file format.
type EvaluateRequest struct {
	System          scenario.SystemSpec `json:"system"`
	Message         MessageJSON         `json:"message"`
	Model           scenario.ModelSpec  `json:"model,omitempty"`
	StoreAndForward bool                `json:"storeAndForward,omitempty"`
	Lambda          float64             `json:"lambda"`
}

// SweepRequest is the body of POST /v1/sweep: like EvaluateRequest but
// with a lambda grid (explicit values, min/max/points, or auto) instead
// of a single rate.
type SweepRequest struct {
	System          scenario.SystemSpec `json:"system"`
	Message         MessageJSON         `json:"message"`
	Model           scenario.ModelSpec  `json:"model,omitempty"`
	StoreAndForward bool                `json:"storeAndForward,omitempty"`
	Lambda          scenario.LambdaSpec `json:"lambda"`
}

// SystemInfo summarizes the built system in responses.
type SystemInfo struct {
	Nodes    int `json:"nodes"`
	Clusters int `json:"clusters"`
	Ports    int `json:"ports"`
}

// PointJSON is one evaluated rate. Latencies are null when the point is
// saturated (the model's +Inf has no JSON encoding).
type PointJSON struct {
	Lambda      float64  `json:"lambda"`
	Saturated   bool     `json:"saturated"`
	MeanLatency *float64 `json:"meanLatency"`
	MeanIntra   *float64 `json:"meanIntra"`
	MeanInter   *float64 `json:"meanInter"`
}

// EvaluateResult is the result field of an evaluate response.
type EvaluateResult struct {
	System SystemInfo `json:"system"`
	PointJSON
}

// SweepResult is the result field of a sweep response.
type SweepResult struct {
	System SystemInfo `json:"system"`
	// SaturationPoint is the largest stable rate in (0, 1] found by
	// bisection (1 when the model never saturates below rate 1).
	SaturationPoint float64     `json:"saturationPoint"`
	Points          []PointJSON `json:"points"`
}

// CampaignSeries and CampaignPoint mirror the scenario.Result layout;
// NaN (not simulated) and +Inf (saturated) become null.
type CampaignPoint struct {
	Lambda     float64  `json:"lambda"`
	Analysis   *float64 `json:"analysis"`
	AnalysisSF *float64 `json:"analysisSF"`
	Simulation *float64 `json:"simulation"`
	SimCI      *float64 `json:"simCI,omitempty"`
}

type CampaignSeries struct {
	Label  string          `json:"label"`
	Points []CampaignPoint `json:"points"`
}

// AssertionJSON is one evaluated scenario assertion.
type AssertionJSON struct {
	Type   string `json:"type"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

// CampaignResult is the result field of a campaign response.
type CampaignResult struct {
	Name       string           `json:"name"`
	Title      string           `json:"title"`
	System     SystemInfo       `json:"system"`
	Passed     bool             `json:"passed"`
	Series     []CampaignSeries `json:"series"`
	Assertions []AssertionJSON  `json:"assertions,omitempty"`
	Notes      []string         `json:"notes,omitempty"`
}

// Envelope wraps every compute response: the canonical cache key, whether
// the result came from the cache (or coalesced onto a concurrent
// identical request), and the endpoint-specific result. The key is the
// same whether or not a router fronts the replica. The server writes
// this shape with appendResult rather than encoding the struct.
type Envelope struct {
	Cached bool            `json:"cached"`
	Key    string          `json:"key"`
	Result json.RawMessage `json:"result"`
}

// APIVersion is the HTTP surface version; every endpoint lives under
// /v1/ and the version endpoint reports it.
const APIVersion = "v1"

// HealthzResult is the body of GET /v1/healthz.
type HealthzResult struct {
	Status        string  `json:"status"`
	Version       string  `json:"version"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
	ShardID       string  `json:"shardId,omitempty"`
}

// VersionResult is the body of GET /v1/version: enough to tell what a
// running replica is built from and which schema generations it speaks.
type VersionResult struct {
	Version     string `json:"version"`     // build version (ldflags-overridable)
	GoVersion   string `json:"goVersion"`   // toolchain that built it
	APIVersion  string `json:"apiVersion"`  // HTTP surface version ("v1")
	CacheScheme string `json:"cacheScheme"` // canonical-key scheme (canon.Scheme)
	ModelSchema string `json:"modelSchema"` // scenario/spec schema version
	ShardID     string `json:"shardId,omitempty"`
}

// StatsResult is the body of GET /v1/stats.
type StatsResult struct {
	Version       string     `json:"version"`
	UptimeSeconds float64    `json:"uptimeSeconds"`
	Goroutines    int        `json:"goroutines"`
	Workers       int        `json:"workers"` // the parallel loop's process-wide budget
	Evaluates     uint64     `json:"evaluates"`
	Sweeps        uint64     `json:"sweeps"`
	Campaigns     uint64     `json:"campaigns"`
	Batches       uint64     `json:"batches"`
	BatchItems    uint64     `json:"batchItems"`
	Optimizes     uint64     `json:"optimizes"`
	Perfabs       uint64     `json:"performabilities"`
	FleetSims     uint64     `json:"fleetsims"`
	Computes      uint64     `json:"computes"`
	Coalesced     uint64     `json:"coalesced"`
	Failures      uint64     `json:"failures"`
	WriteErrors   uint64     `json:"responseWriteErrors"`
	Cache         CacheStats `json:"cache"`
}

// --- handlers --------------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, HealthzResult{
		Status:        "ok",
		Version:       version.Version,
		UptimeSeconds: time.Since(s.start).Seconds(),
		ShardID:       s.opt.ShardID,
	})
}

func (s *Server) handleVersion(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, VersionResult{
		Version:     version.Version,
		GoVersion:   runtime.Version(),
		APIVersion:  APIVersion,
		CacheScheme: canon.Scheme,
		ModelSchema: scenario.SchemaVersion,
		ShardID:     s.opt.ShardID,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, StatsResult{
		Version:       version.Version,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Goroutines:    runtime.NumGoroutine(),
		Workers:       workers(),
		Evaluates:     s.requestCount("evaluate"),
		Sweeps:        s.requestCount("sweep"),
		Campaigns:     s.requestCount("campaign"),
		Batches:       s.batches.Load(),
		BatchItems:    s.batchItems.Load(),
		Optimizes:     s.requestCount("optimize"),
		Perfabs:       s.requestCount("performability"),
		FleetSims:     s.requestCount("fleetsim"),
		Computes:      s.computes.Load(),
		Coalesced:     s.coalesced.Load(),
		Failures:      s.failures.Load(),
		WriteErrors:   s.writeErrors.Load(),
		Cache:         s.cache.Stats(),
	})
}

// --- plumbing --------------------------------------------------------------

// requestCount returns how many requests the row named name accepted.
func (s *Server) requestCount(name string) uint64 { return s.requests[rowIndex(name)].Load() }

// workers is the size of the parallel loop's process-wide budget, which
// every request's fan-out shares: GOMAXPROCS goroutines.
func workers() int { return batch.Workers(0, math.MaxInt) }

// cachedClass reports whether class avoided its own computation (the
// Envelope.Cached field and a batch item line's cached field).
func cachedClass(class string) bool { return class == classHit || class == classCoalesced }

// finish writes the enveloped payload, or maps the compute error to its
// status code. A successful answer aliases digest to the entry under
// key. The X-Cache header carries the hit class verbatim ("hit",
// "coalesced" or "miss"); the instrumentation middleware reads it back
// for the histogram label.
func (s *Server) finish(w http.ResponseWriter, r *http.Request, digest BodyDigest, key canon.Key, payload []byte, class string, err error) {
	if err != nil {
		s.fail(w, r, err)
		return
	}
	s.cache.AddAlias(digest, key)
	w.Header().Set("X-Cache", class)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(appendResult(nil, false, cachedClass(class), key, payload)); err != nil {
		s.writeErrors.Add(1)
	}
}

// appendResult appends the JSON line json.Encoder writes for an Envelope
// (frame false) or a result-kind ResultLine (frame true) around payload,
// without re-scanning it: payload is json.Marshal output, already
// compact and HTML-escaped, and a canonical key needs no escaping. An
// empty key is omitted, as ResultLine's omitempty does; envelopes always
// carry one.
func appendResult(dst []byte, frame, cached bool, key canon.Key, payload []byte) []byte {
	dst = slices.Grow(dst, len(payload)+len(key)+64)
	if frame {
		dst = append(dst, `{"kind":"`+FrameResult+`","cached":`...)
	} else {
		dst = append(dst, `{"cached":`...)
	}
	dst = strconv.AppendBool(dst, cached)
	if key != "" {
		dst = append(dst, `,"key":"`...)
		dst = append(dst, key...)
		dst = append(dst, '"')
	}
	dst = append(dst, `,"result":`...)
	if len(payload) == 0 {
		dst = append(dst, "null"...)
	}
	dst = append(dst, payload...)
	return append(dst, "}\n"...)
}

// fail answers a request with the typed APIError envelope — the only
// non-2xx body shape the v1 API emits — at err's status, annotates the
// trace, and logs one structured line when a logger is configured.
func (s *Server) fail(w http.ResponseWriter, r *http.Request, err error) {
	s.failures.Add(1)
	status := statusFor(err)
	ae := apiErrorFor(RequestIDFrom(r.Context()), err)
	tr := reqtrace.FromContext(r.Context())
	tr.SetError(ae.Message)
	if s.opt.Log != nil {
		attrs := []slog.Attr{
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", status),
			slog.String("code", string(ae.Code)),
			slog.String("requestId", ae.RequestID),
			slog.String("error", ae.Message),
		}
		if tr != nil {
			attrs = append(attrs, slog.String("traceId", tr.Context().TraceID.String()))
		}
		s.opt.Log.LogAttrs(r.Context(), slog.LevelWarn, "request failed", attrs...)
	}
	s.writeJSON(w, status, ae)
}

// writeJSON writes one JSON response body. An encode failure here means
// the client disconnected (or the connection broke) after the status
// line — nothing can be re-sent, but the failure is counted in
// writeErrors / ccserved_response_write_errors_total instead of being
// dropped silently.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		s.writeErrors.Add(1)
	}
}

// hashableSystem strips the label from a built system so cache keys
// depend only on structure (a preset and its explicit spelling that
// build the same networks still differ in spec, but never in name).
func hashableSystem(sys *cluster.System) cluster.System {
	c := *sys
	c.Name = ""
	return c
}

func systemInfo(sys *cluster.System) SystemInfo {
	return SystemInfo{Nodes: sys.TotalNodes(), Clusters: sys.NumClusters(), Ports: sys.Ports}
}

// num maps a model value to its JSON form: NaN (absent) and ±Inf
// (saturated) become null.
func num(f float64) *float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil
	}
	return &f
}

func pointJSON(res *core.Result) PointJSON {
	return PointJSON{
		Lambda:      res.Lambda,
		Saturated:   res.Saturated,
		MeanLatency: num(res.MeanLatency),
		MeanIntra:   num(res.MeanIntra),
		MeanInter:   num(res.MeanInter),
	}
}
