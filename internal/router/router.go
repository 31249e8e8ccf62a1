package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ccnet/ccnet/internal/canon"
	"github.com/ccnet/ccnet/internal/reqtrace"
	"github.com/ccnet/ccnet/internal/service"
)

// Options configures a Router. Replicas is the only required field.
type Options struct {
	// Replicas is the fixed replica set the ring is built over.
	Replicas []Replica
	// VNodes is the number of virtual ring points per replica
	// (default 64). More points smooth the key distribution.
	VNodes int
	// ProbeInterval is the active health-probe period (default 1s).
	// Probes time out after one interval. Zero or negative keeps the
	// default; probing starts with Start and stops with Close.
	ProbeInterval time.Duration
	// FailAfter consecutive failed signals mark a replica down;
	// RiseAfter consecutive successes bring it back (default 2 each).
	// The hysteresis is what keeps a flapping replica from thrashing
	// shard assignments.
	FailAfter int
	RiseAfter int
	// MaxRetries bounds how many additional replicas a failed forward
	// is retried against (default 2). Retries happen only before any
	// response byte has been sent to the client; every compute
	// endpoint is idempotent (pure function of the spec + cache), so
	// replaying the body is safe.
	RetryBackoff time.Duration // base backoff between retries (default 25ms, jittered)
	MaxRetries   int
	// MaxBodyBytes bounds request bodies (default 16 MiB, matching
	// the service's batch limit).
	MaxBodyBytes int64
	// Client overrides the forwarding client (tests); the default
	// pools connections per replica and never times out — streaming
	// responses are long-lived by design.
	Client *http.Client
	// Log, when set, receives one structured line per health
	// transition, retry, mid-stream failure and unavailable request.
	Log *slog.Logger
	// Tracer, when set, traces keyed forwards: the router adopts (or
	// mints) the W3C traceparent, propagates it with the request id to
	// the replica, records ring-walk/attempt/stream spans, and serves
	// the export ring on GET /v1/traces. The replica's tracer honors
	// the sampled flag, so one decision at the router governs the whole
	// request path.
	Tracer *reqtrace.Tracer
}

// Router is the sharding reverse proxy. Create with New, optionally
// Start active probing, serve Handler, and Close on shutdown.
type Router struct {
	opt    Options
	ring   *ring
	health *health
	client *http.Client
	m      *routerMetrics
	log    *slog.Logger

	rr atomic.Uint64 // round-robin cursor for keyless endpoints

	jmu sync.Mutex
	jit *rand.Rand

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// New validates the options and builds the ring. The router starts
// passive-only: call Start to begin active probing.
func New(opt Options) (*Router, error) {
	rg, err := newRing(opt.Replicas, opt.VNodes)
	if err != nil {
		return nil, err
	}
	if opt.ProbeInterval <= 0 {
		opt.ProbeInterval = time.Second
	}
	if opt.MaxRetries < 0 {
		opt.MaxRetries = 0
	} else if opt.MaxRetries == 0 {
		opt.MaxRetries = 2
	}
	if opt.RetryBackoff <= 0 {
		opt.RetryBackoff = 25 * time.Millisecond
	}
	if opt.MaxBodyBytes <= 0 {
		opt.MaxBodyBytes = 16 << 20
	}
	r := &Router{
		opt:    opt,
		ring:   rg,
		client: opt.Client,
		log:    opt.Log,
		jit:    rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	if r.log == nil {
		r.log = slog.New(slog.DiscardHandler)
	}
	if r.client == nil {
		r.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 256}}
	}
	r.health = newHealth(len(opt.Replicas), opt.FailAfter, opt.RiseAfter, func(i int, healthy bool) {
		r.m.flips.Inc()
		lvl := slog.LevelWarn
		if healthy {
			lvl = slog.LevelInfo
		}
		r.log.Log(context.Background(), lvl, "replica health changed",
			"replica", opt.Replicas[i].ID, "url", opt.Replicas[i].URL, "healthy", healthy)
	})
	r.initMetrics()
	return r, nil
}

// Start launches one active prober per replica. Safe to skip: the
// router then learns health passively from forwarding outcomes only.
func (r *Router) Start() {
	if r.cancel != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	for i := range r.opt.Replicas {
		r.wg.Add(1)
		go func(i int) {
			defer r.wg.Done()
			r.probeLoop(ctx, i)
		}(i)
	}
}

// Close stops the probers and releases idle connections.
func (r *Router) Close() {
	if r.cancel != nil {
		r.cancel()
		r.wg.Wait()
		r.cancel = nil
	}
	if tr, ok := r.client.Transport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
}

// Pick returns the replica currently serving key's shard: the first
// healthy candidate in ring order. ok is false when every replica is
// down. Exposed so tests (and capacity tooling) can inspect the
// assignment the data path will use.
func (r *Router) Pick(key string) (Replica, bool) {
	for _, i := range r.ring.candidates(key) {
		if r.health.isHealthy(i) {
			return r.opt.Replicas[i], true
		}
	}
	return Replica{}, false
}

// Handler builds the route table: keyed POST endpoints, keyless GET
// passthroughs, the router's own health and metrics, and a typed 404
// for everything else.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	// methods records each routed path's allowed method so the fallback
	// can tell a wrong-method request (405) from an unknown path (404);
	// the "/" catch-all below swallows both, so ServeMux's own 405
	// dispatch never fires.
	methods := make(map[string]string)
	// The replica's spec-carrying endpoints shard by canonical body key;
	// everything else keyless round-robins.
	for _, ep := range service.ComputeEndpoints() {
		ep := ep
		mux.HandleFunc("POST /v1/"+ep, func(w http.ResponseWriter, req *http.Request) {
			r.handleKeyed(w, req, ep)
		})
		methods["/v1/"+ep] = http.MethodPost
	}
	mux.HandleFunc("GET /v1/version", r.handleKeyless)
	mux.HandleFunc("GET /v1/stats", r.handleKeyless)
	mux.HandleFunc("GET /v1/healthz", r.handleHealthz)
	mux.Handle("GET /v1/traces", r.opt.Tracer.Handler())
	mux.Handle("GET /metrics", r.m.reg.Handler())
	for _, p := range []string{"/v1/version", "/v1/stats", "/v1/healthz", "/v1/traces", "/metrics"} {
		methods[p] = http.MethodGet
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		reqID := r.ensureRequestID(w, req)
		if want, ok := methods[req.URL.Path]; ok && req.Method != want {
			r.fail(w, http.StatusMethodNotAllowed, service.APIError{
				Code: service.CodeBadRequest, Message: "method not allowed", RequestID: reqID,
			})
			return
		}
		r.fail(w, http.StatusNotFound, service.APIError{
			Code: service.CodeBadRequest, Message: "unknown endpoint", RequestID: reqID,
		})
	})
	return mux
}

// ensureRequestID accepts or mints the X-Request-Id and echoes it on
// the response, so client, router and replica all log the same ID.
func (r *Router) ensureRequestID(w http.ResponseWriter, req *http.Request) string {
	id := req.Header.Get(service.RequestIDHeader)
	if id == "" {
		id = service.NewRequestID()
	}
	w.Header().Set(service.RequestIDHeader, id)
	return id
}

// fail writes a non-2xx APIError body — the same envelope the replicas
// use, so clients never see a router-specific error shape.
func (r *Router) fail(w http.ResponseWriter, status int, ae service.APIError) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b, _ := json.Marshal(ae)
	w.Write(append(b, '\n'))
}

// RouterHealth is the router's own /v1/healthz document.
type RouterHealth struct {
	Status   string          `json:"status"`
	Healthy  int             `json:"healthy"`
	Replicas []ReplicaHealth `json:"replicas"`
}

// handleHealthz reports the router's view of the fleet: 200 with a
// per-replica breakdown while at least one replica is up, 503
// shard_unavailable when none is.
func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	reqID := r.ensureRequestID(w, req)
	snap := r.health.snapshot(r.opt.Replicas)
	n := 0
	for _, s := range snap {
		if s.Healthy {
			n++
		}
	}
	if n == 0 {
		r.fail(w, http.StatusServiceUnavailable, service.APIError{
			Code:      service.CodeShardUnavailable,
			Message:   fmt.Sprintf("no healthy replicas (%d configured)", len(snap)),
			RequestID: reqID,
		})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(RouterHealth{Status: "ok", Healthy: n, Replicas: snap})
}

// handleKeyed shards one spec-carrying POST: read the body once,
// canonicalize it into the shard key, and forward it to the first
// healthy candidate, retrying transport failures against the next
// candidates while nothing has been sent to the client.
func (r *Router) handleKeyed(w http.ResponseWriter, req *http.Request, endpoint string) {
	reqID := r.ensureRequestID(w, req)
	// The router owns the trace decision for the whole request path: it
	// adopts the client's traceparent or mints one, and tryOnce forwards
	// the context so the replica joins the same trace with the same
	// sampling verdict. The deferred End finalizes whichever way the
	// request leaves (forwarded, failed, or client gone); earlier
	// explicit Ends win because End is idempotent.
	ctx, tr := r.opt.Tracer.StartRequest(req.Context(), req.Method+" "+req.URL.Path,
		req.Header.Get(reqtrace.Header), reqID)
	req = req.WithContext(ctx)
	defer tr.End(0, nil)
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, r.opt.MaxBodyBytes))
	if err != nil {
		tr.End(http.StatusBadRequest, err)
		r.fail(w, http.StatusBadRequest, service.APIError{
			Code: service.CodeBadRequest, Message: "reading request body: " + err.Error(), RequestID: reqID,
		})
		return
	}
	// The canonical hash both validates the body is JSON and derives
	// the shard key; it chooses the shard and nothing else — the
	// replica derives its own cache key from the decoded request, so an
	// answer's key is the same with or without a router. Hashing the
	// raw JSON value (not the decoded endpoint struct) means the router
	// needs no per-endpoint schema knowledge; two spellings of the same
	// spec (key order, number forms) still land on one shard.
	sp := tr.StartSpan("canon")
	key, err := canon.Hash(endpoint, json.RawMessage(body))
	sp.EndErr(err)
	if err != nil {
		tr.End(http.StatusBadRequest, err)
		r.fail(w, http.StatusBadRequest, service.APIError{
			Code: service.CodeBadRequest, Message: "request body is not valid JSON", RequestID: reqID,
		})
		return
	}
	candidates := r.ring.candidates(string(key))
	r.forward(w, req, endpoint, body, candidates, reqID)
}

// handleKeyless round-robins a GET across healthy replicas.
func (r *Router) handleKeyless(w http.ResponseWriter, req *http.Request) {
	reqID := r.ensureRequestID(w, req)
	n := len(r.opt.Replicas)
	start := int(r.rr.Add(1)) % n
	var candidates []int
	for i := 0; i < n; i++ {
		candidates = append(candidates, (start+i)%n)
	}
	r.forward(w, req, strings.TrimPrefix(req.URL.Path, "/v1/"), nil, candidates, reqID)
}

// forward tries the candidates in order — healthy ones first, then (as
// a last resort, when everything looks down) unhealthy ones — bounded
// by MaxRetries additional attempts. A transport failure before any
// response byte reaches the client marks the replica, backs off with
// jitter and moves on; once bytes have streamed, a failure is reported
// in-band as an "error" frame instead, because the HTTP status is gone.
func (r *Router) forward(w http.ResponseWriter, req *http.Request, endpoint string, body []byte, candidates []int, reqID string) {
	r.m.inflight.Add(1)
	defer r.m.inflight.Add(-1)

	tr := reqtrace.FromContext(req.Context())
	fwdStart := time.Now()
	order := make([]int, 0, len(candidates))
	for _, i := range candidates {
		if r.health.isHealthy(i) {
			order = append(order, i)
		}
	}
	allDown := len(order) == 0
	if allDown {
		// Every replica is marked down. Rather than failing instantly,
		// spend the attempt budget on the raw candidate order — if one
		// is actually back, passive success revives it immediately.
		order = candidates
	}
	// The ring span carries the probe-state verdict the walk was based
	// on: how many candidates the key hashed to, how many the health set
	// let through, and whether the walk fell back to the raw order.
	tr.RecordSpan("ring", fwdStart, time.Since(fwdStart)).Attr(
		reqtrace.Int("candidates", int64(len(candidates))),
		reqtrace.Int("healthy", int64(r.health.healthyCount())),
		reqtrace.Bool("allDown", allDown),
	)
	maxAttempts := 1 + r.opt.MaxRetries
	if len(order) < maxAttempts {
		maxAttempts = len(order)
	}

	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		i := order[attempt]
		if attempt > 0 {
			r.m.retries.Inc()
			r.log.Warn("retrying forward",
				"endpoint", endpoint, "requestId", reqID, "replica", r.opt.Replicas[i].ID,
				"attempt", attempt, "error", lastErr)
			select {
			case <-req.Context().Done():
				tr.End(0, req.Context().Err())
				return
			case <-time.After(r.backoff(attempt)):
			}
		}
		done, err := r.tryOnce(w, req, i, attempt, endpoint, body, reqID, fwdStart)
		if done {
			return
		}
		lastErr = err
	}

	r.m.unavail.Inc()
	msg := fmt.Sprintf("no replica could take the request (%d configured, %d healthy)",
		len(r.opt.Replicas), r.health.healthyCount())
	if lastErr != nil {
		msg += ": " + lastErr.Error()
	}
	r.log.Error("no replica available", "endpoint", endpoint, "requestId", reqID, "error", msg)
	tr.SetError(msg)
	tr.End(http.StatusServiceUnavailable, nil)
	r.fail(w, http.StatusServiceUnavailable, service.APIError{
		Code: service.CodeShardUnavailable, Message: msg, RequestID: reqID,
	})
}

// backoff returns the jittered pause before retry attempt n (1-based):
// base·2^(n-1), ±50%.
func (r *Router) backoff(n int) time.Duration {
	d := r.opt.RetryBackoff << (n - 1)
	r.jmu.Lock()
	f := 0.5 + r.jit.Float64()
	r.jmu.Unlock()
	return time.Duration(float64(d) * f)
}

// tryOnce forwards to replica i. done means the client has been
// answered (successfully or in-band) and the caller must stop; when
// done is false the attempt failed cleanly before any client byte and
// the caller may retry elsewhere.
func (r *Router) tryOnce(w http.ResponseWriter, req *http.Request, i, attempt int, endpoint string, body []byte, reqID string, fwdStart time.Time) (done bool, err error) {
	rep := r.opt.Replicas[i]
	tr := reqtrace.FromContext(req.Context())
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	out, err := http.NewRequestWithContext(req.Context(), req.Method, rep.URL+req.URL.Path, rd)
	if err != nil {
		return false, err
	}
	if ct := req.Header.Get("Content-Type"); ct != "" {
		out.Header.Set("Content-Type", ct)
	}
	out.Header.Set(service.RequestIDHeader, reqID)
	// The replica joins this trace: same trace id, same sampling
	// verdict. An untraced request forwards no header at all (nil
	// Trace renders the empty string), so the replica falls back to
	// its own decision exactly like an unfronted deployment.
	if tp := tr.Traceparent(); tp != "" {
		out.Header.Set(reqtrace.Header, tp)
	}

	sp := tr.StartSpan("attempt").Attr(
		reqtrace.String("replica", rep.ID),
		reqtrace.Int("attempt", int64(attempt)),
	)
	start := time.Now()
	resp, err := r.client.Do(out)
	if err != nil {
		sp.EndErr(err)
		if req.Context().Err() != nil {
			// The client hung up; nothing to retry for.
			tr.End(0, err)
			return true, err
		}
		r.m.fwdErrors.With(rep.ID).Inc()
		r.health.observe(i, false, 0, err.Error())
		return false, err
	}
	defer resp.Body.Close()
	sp.Attr(reqtrace.Int("status", int64(resp.StatusCode))).End()
	// The replica answered; that is a liveness signal regardless of
	// status (a 400 means it is alive and judging).
	r.health.observe(i, true, 0, "")
	tr.SetShard(rep.ID)
	tr.SetStatus(resp.StatusCode)

	h := w.Header()
	for _, name := range []string{"Content-Type", "X-Cache", service.ShardHeader} {
		if v := resp.Header.Get(name); v != "" {
			h.Set(name, v)
		}
	}
	if h.Get(service.ShardHeader) == "" {
		h.Set(service.ShardHeader, rep.ID)
	}
	// The replica's Server-Timing entries pass through untouched and the
	// router Adds its own rt_* entries as a second header value: rt_route
	// is everything the router spent before the upstream call (ring walk,
	// failed attempts, backoff), rt_upstream the winning call itself up
	// to response headers. Multiple Server-Timing headers are legal and
	// clients see one combined timeline.
	for _, v := range resp.Header.Values("Server-Timing") {
		h.Add("Server-Timing", v)
	}
	if r.opt.Tracer != nil {
		upstream := time.Since(start)
		h.Add("Server-Timing", "rt_route;dur="+formatMillis(time.Since(fwdStart)-upstream)+
			", rt_upstream;dur="+formatMillis(upstream))
	}
	w.WriteHeader(resp.StatusCode)
	streaming := strings.HasPrefix(resp.Header.Get("Content-Type"), "application/x-ndjson")
	copyStart := time.Now()
	copyErr := copyFlush(w, resp.Body, streaming)
	tr.RecordSpan("stream", copyStart, time.Since(copyStart)).Attr(
		reqtrace.Bool("ndjson", streaming))
	r.m.forwards.With(rep.ID, strconv.Itoa(resp.StatusCode)).Observe(time.Since(start).Seconds())
	if copyErr != nil && req.Context().Err() == nil {
		// The replica died mid-response. Status and bytes are already
		// committed, so the only honest channel left is an in-band
		// error frame on the stream.
		r.m.midstream.Inc()
		r.health.observe(i, false, 0, copyErr.Error())
		r.log.Warn("mid-stream failure",
			"replica", rep.ID, "endpoint", endpoint, "requestId", reqID, "error", copyErr)
		tr.SetError("replica failed mid-stream: " + copyErr.Error())
		if streaming {
			line, _ := json.Marshal(service.ErrorLine{Kind: service.FrameError, Error: service.APIError{
				Code:      service.CodeShardUnavailable,
				Message:   "replica failed mid-stream: " + copyErr.Error(),
				RequestID: reqID,
			}})
			// A leading newline closes any partially-written line so the
			// error frame itself stays parseable.
			w.Write(append(append([]byte{'\n'}, line...), '\n'))
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
		}
	}
	return true, nil
}

// formatMillis renders d as Server-Timing milliseconds (3 decimals,
// clamped at zero — the rt_route subtraction can go fractionally
// negative on clock granularity).
func formatMillis(d time.Duration) string {
	if d < 0 {
		d = 0
	}
	return strconv.FormatFloat(float64(d)/1e6, 'f', 3, 64)
}

// copyBufs holds copyFlush's 32 KB buffers, so forwarding a response
// does not allocate and zero a fresh one.
var copyBufs = sync.Pool{New: func() any { return new([32 << 10]byte) }}

// copyFlush streams src to dst, flushing after every chunk when the
// response is NDJSON so progress frames reach the client as they are
// produced, not when buffers fill.
func copyFlush(dst http.ResponseWriter, src io.Reader, flushEach bool) error {
	f, _ := dst.(http.Flusher)
	bp := copyBufs.Get().(*[32 << 10]byte)
	defer copyBufs.Put(bp)
	buf := bp[:]
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return nil // client gone; not the replica's fault
			}
			if flushEach && f != nil {
				f.Flush()
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}
