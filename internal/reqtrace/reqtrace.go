// Package reqtrace is the request-tracing layer of the serving stack:
// a zero-dependency (stdlib-only, like internal/metrics) tracer that
// decomposes one end-to-end request into named stage spans — router
// forward/retry, canonicalization, cache lookup, singleflight wait,
// worker-pool queue wait, compute — the same hierarchical latency
// decomposition the model applies to the network, turned on the stack
// itself.
//
// The trace identity travels as a W3C traceparent header, minted at
// the outermost tier (ccrouter, or ccserved when unfronted) and
// propagated alongside X-Request-Id. The minting tier
// makes the sampling decision (deterministic: head-N plus a seeded
// hash of the trace id) and downstream tiers honor its sampled flag,
// so a request is traced everywhere or nowhere.
//
// Completed sampled traces are exported as NDJSON through a bounded
// in-memory ring served at GET /v1/traces and, optionally, a file
// sink; slow and errored traces are additionally retained in a
// dedicated tail ring so a burst of fast requests cannot evict the
// interesting ones. Every sampled response also carries a
// Server-Timing header with the per-stage breakdown, so any HTTP
// client sees the decomposition without calling the export endpoint.
//
// The sampled-out path is built to disappear: an unsampled request
// records no spans, and every Span method on it is a nil-receiver
// branch-and-return — zero allocations, single-digit nanoseconds —
// gated by BenchmarkSpanRecord.
package reqtrace

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// Defaults for Options fields left zero.
const (
	DefRate          = 1.0
	DefHeadN         = 8
	DefSlowThreshold = 250 * time.Millisecond
	DefMaxSpans      = 48
	DefBufferTraces  = 256
)

// Options configures a Tracer. The zero value samples everything,
// keeps the last DefBufferTraces traces, and flags requests slower
// than DefSlowThreshold.
type Options struct {
	// Component names the tier ("ccserved", "ccrouter") on exported
	// traces and log lines.
	Component string

	// Rate is the head-sampling probability in [0,1] applied to minted
	// trace ids. 0 means DefRate (sample everything); use Disabled to
	// turn tracing off entirely.
	Rate float64

	// HeadN forces the first N traces to be sampled regardless of Rate,
	// so short runs and cold starts always yield traces. 0 means
	// DefHeadN; negative disables the head window.
	HeadN int

	// SlowThreshold marks traces at or above this duration as slow:
	// retained in the tail ring and logged with their span breakdown.
	// 0 means DefSlowThreshold; negative disables slow handling.
	SlowThreshold time.Duration

	// MaxSpans caps spans recorded per trace; further StartSpan calls
	// are counted as dropped. 0 means DefMaxSpans.
	MaxSpans int

	// BufferTraces is the capacity of the recent-trace ring behind
	// GET /v1/traces. The tail ring (slow + errored) holds a quarter of
	// it, minimum 16. 0 means DefBufferTraces.
	BufferTraces int

	// Seed makes minted trace ids — and therefore sampling decisions
	// and the exported trace stream — deterministic for a fixed request
	// sequence. 0 mints cryptographically random ids.
	Seed uint64

	// Sink, when non-nil, receives every exported trace as one NDJSON
	// line. Writes are serialized by the tracer.
	Sink interface{ Write(p []byte) (int, error) }

	// Log, when non-nil, receives slow-request and errored-request
	// lines with the span breakdown inlined.
	Log *slog.Logger
}

// Disabled is a Rate value that turns sampling off entirely (0 means
// "default", so a sentinel is needed).
const Disabled = -1.0

// Stats is a point-in-time snapshot of tracer counters, exposed as
// ccserved_trace_* / ccrouter_trace_* metrics.
type Stats struct {
	Started      uint64 // root traces started (sampled or not)
	Sampled      uint64 // traces that recorded spans
	Exported     uint64 // sampled traces exported at End
	Slow         uint64 // exported traces at or above SlowThreshold
	Errored      uint64 // exported traces that ended in error
	DroppedSpans uint64 // spans discarded by the MaxSpans cap
}

// Tracer mints, records, and exports request traces. A nil *Tracer is
// valid and inert, so call sites never branch on "tracing enabled".
type Tracer struct {
	opt      Options
	rate     float64
	headN    int
	slow     time.Duration
	maxSpans int

	seq     atomic.Uint64 // traces started, drives the head-N window
	sampled atomic.Uint64
	dropped atomic.Uint64

	mintMu   sync.Mutex
	mintCtr  uint64 // seeded deterministic id counter
	exporter *exporter
}

// New builds a Tracer. Options are defaulted as documented on each
// field.
func New(opt Options) *Tracer {
	t := &Tracer{opt: opt, rate: opt.Rate, headN: opt.HeadN, slow: opt.SlowThreshold, maxSpans: opt.MaxSpans}
	if t.rate == 0 {
		t.rate = DefRate
	}
	if t.headN == 0 {
		t.headN = DefHeadN
	}
	if t.slow == 0 {
		t.slow = DefSlowThreshold
	}
	if t.maxSpans <= 0 {
		t.maxSpans = DefMaxSpans
	}
	buf := opt.BufferTraces
	if buf <= 0 {
		buf = DefBufferTraces
	}
	t.exporter = newExporter(buf)
	return t
}

// Stats returns a snapshot of the tracer's counters. Safe on nil.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	s := Stats{
		Started:      t.seq.Load(),
		Sampled:      t.sampled.Load(),
		DroppedSpans: t.dropped.Load(),
	}
	s.Exported, s.Slow, s.Errored = t.exporter.stats()
	return s
}

// mintIDs produces a fresh trace id + root span id: deterministic from
// Seed when set (a splitmix64 counter stream, so identical request
// sequences mint identical ids and identical sampling decisions),
// cryptographically random otherwise.
func (t *Tracer) mintIDs() (TraceID, SpanID) {
	var tid TraceID
	var sid SpanID
	if t.opt.Seed != 0 {
		t.mintMu.Lock()
		base := t.opt.Seed + t.mintCtr*3
		t.mintCtr++
		t.mintMu.Unlock()
		binary.BigEndian.PutUint64(tid[0:8], splitmix64(base))
		binary.BigEndian.PutUint64(tid[8:16], splitmix64(base+1))
		binary.BigEndian.PutUint64(sid[:], splitmix64(base+2))
	} else {
		var b [24]byte
		// rand.Read never fails on supported platforms (it panics
		// instead), so the ids are always fully populated.
		rand.Read(b[:])
		copy(tid[:], b[0:16])
		copy(sid[:], b[16:24])
	}
	if tid.IsZero() {
		tid[15] = 1 // all-zero ids are invalid on the wire
	}
	if sid.IsZero() {
		sid[7] = 1
	}
	return tid, sid
}

// sampleDecision is the deterministic head decision for a minted
// trace: the first HeadN traces are always kept, then a seeded hash of
// the trace id is compared against Rate. Identical (seed, id) always
// yields the identical decision.
func (t *Tracer) sampleDecision(seq uint64, id TraceID) bool {
	if t.rate < 0 {
		return false
	}
	if t.headN > 0 && seq <= uint64(t.headN) {
		return true
	}
	if t.rate >= 1 {
		return true
	}
	h := splitmix64(binary.BigEndian.Uint64(id[0:8]) ^ t.opt.Seed)
	return float64(h>>11)/float64(1<<53) < t.rate
}

// StartRequest begins the trace for one inbound request. When parent
// (the raw traceparent header, empty if absent) parses, its trace id
// and sampling decision are adopted; otherwise a fresh identity is
// minted and the head+rate decision applies. The returned context
// carries the trace for FromContext. Safe on a nil Tracer: returns
// (ctx, nil), and a nil *Trace is inert.
func (t *Tracer) StartRequest(ctx context.Context, name, parent, requestID string) (context.Context, *Trace) {
	if t == nil {
		return ctx, nil
	}
	seq := t.seq.Add(1)
	now := time.Now()
	tr := &Trace{tracer: t, name: name, requestID: requestID, start: now, wall: now.UnixNano(), seq: seq}
	if parent != "" {
		if tc, err := ParseTraceparent(parent); err == nil {
			tr.tc = tc
			tr.remote = true
			tr.rec = tc.Sampled() && t.rate >= 0
			if tr.rec {
				tr.spans = make([]spanRec, 0, t.maxSpans)
				t.sampled.Add(1)
			}
			return NewContext(ctx, tr), tr
		}
	}
	tid, sid := t.mintIDs()
	tr.tc = TraceContext{TraceID: tid, SpanID: sid}
	if t.sampleDecision(seq, tid) {
		tr.tc.Flags = FlagSampled
		tr.rec = true
		tr.spans = make([]spanRec, 0, t.maxSpans)
		t.sampled.Add(1)
	}
	return NewContext(ctx, tr), tr
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed 64-bit
// hash used for both deterministic id minting and the sampling hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

type ctxKey struct{}

// NewContext returns ctx carrying tr.
func NewContext(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, tr)
}

// FromContext returns the trace carried by ctx, or nil (inert).
func FromContext(ctx context.Context) *Trace {
	tr, _ := ctx.Value(ctxKey{}).(*Trace)
	return tr
}

// attrKind discriminates the typed attribute union.
type attrKind uint8

const (
	attrNone attrKind = iota
	attrString
	attrInt
	attrFloat
	attrBool
)

// Attr is one typed span or trace attribute. The union layout keeps
// attribute recording allocation-free.
type Attr struct {
	Key  string
	kind attrKind
	s    string
	i    int64
	f    float64
}

// String builds a string attribute.
func String(key, v string) Attr { return Attr{Key: key, kind: attrString, s: v} }

// Int builds an integer attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, kind: attrInt, i: v} }

// Float builds a float attribute.
func Float(key string, v float64) Attr { return Attr{Key: key, kind: attrFloat, f: v} }

// Bool builds a boolean attribute.
func Bool(key string, v bool) Attr {
	a := Attr{Key: key, kind: attrBool}
	if v {
		a.i = 1
	}
	return a
}

// maxSpanAttrs bounds per-span attributes; recording keeps the first
// maxSpanAttrs and counts the rest as dropped spans' worth of loss is
// not tracked separately.
const maxSpanAttrs = 6

// spanRec is the storage for one recorded span. Span offsets are
// monotonic nanoseconds since trace start, so exported timings are
// immune to wall-clock steps.
type spanRec struct {
	name    string
	startNS int64
	durNS   int64
	err     string
	nattrs  int
	attrs   [maxSpanAttrs]Attr
}

// Trace is one request's trace. All methods are safe on nil and on
// unsampled traces (they become branch-and-return no-ops). Span slots
// are reserved with an atomic counter, so concurrent StartSpan calls
// from batch workers are safe; slot contents are written by the owner
// only.
type Trace struct {
	tracer    *Tracer
	tc        TraceContext
	name      string
	requestID string
	shard     string
	seq       uint64
	start     time.Time
	wall      int64 // wall-clock ns at start, export metadata only
	remote    bool  // identity adopted from an upstream traceparent
	rec       bool  // sampled: spans are recorded

	mu      sync.Mutex
	spans   []spanRec
	nOpen   int
	status  int
	errMsg  string
	endedMu sync.Mutex
	ended   bool
}

// Sampled reports whether this trace records spans. Safe on nil.
func (tr *Trace) Sampled() bool { return tr != nil && tr.rec }

// Context returns the trace's wire identity (zero value on nil).
func (tr *Trace) Context() TraceContext {
	if tr == nil {
		return TraceContext{}
	}
	return tr.tc
}

// Traceparent returns the header value to propagate downstream, empty
// on nil.
func (tr *Trace) Traceparent() string {
	if tr == nil {
		return ""
	}
	return tr.tc.String()
}

// RequestID returns the correlated X-Request-Id.
func (tr *Trace) RequestID() string {
	if tr == nil {
		return ""
	}
	return tr.requestID
}

// SetShard records the serving shard id on the trace root.
func (tr *Trace) SetShard(shard string) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.shard = shard
	tr.mu.Unlock()
}

// SetStatus records the response status code.
func (tr *Trace) SetStatus(code int) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.status = code
	tr.mu.Unlock()
}

// SetError annotates the trace root with a failure message (e.g. the
// APIError the request was answered with), marking the trace errored
// for tail retention.
func (tr *Trace) SetError(msg string) {
	if tr == nil || msg == "" {
		return
	}
	tr.mu.Lock()
	tr.errMsg = msg
	tr.mu.Unlock()
}

// Span is a value handle to one recorded span. The zero Span (and any
// span of an unsampled trace) is inert: every method is a nil-check
// branch, no allocation, no atomic.
type Span struct {
	tr *Trace
	i  int
}

// StartSpan records the start of a named stage. On an unsampled or
// nil trace it returns the inert zero Span without allocating.
func (tr *Trace) StartSpan(name string) Span {
	if tr == nil || !tr.rec {
		return Span{}
	}
	return tr.startAt(name, time.Since(tr.start))
}

func (tr *Trace) startAt(name string, off time.Duration) Span {
	tr.mu.Lock()
	if len(tr.spans) == cap(tr.spans) {
		tr.mu.Unlock()
		tr.tracer.dropped.Add(1)
		return Span{}
	}
	i := len(tr.spans)
	tr.spans = append(tr.spans, spanRec{name: name, startNS: int64(off), durNS: -1})
	tr.mu.Unlock()
	return Span{tr: tr, i: i + 1}
}

// RecordSpan records a stage whose bounds are already known (e.g. a
// queue wait measured by the worker pool): start is the absolute start
// time, d its duration. Returns the span handle for attributes.
func (tr *Trace) RecordSpan(name string, start time.Time, d time.Duration) Span {
	if tr == nil || !tr.rec {
		return Span{}
	}
	if d < 0 {
		d = 0
	}
	sp := tr.startAt(name, start.Sub(tr.start))
	if sp.tr != nil {
		sp.tr.mu.Lock()
		sp.tr.spans[sp.i-1].durNS = int64(d)
		sp.tr.mu.Unlock()
	}
	return sp
}

// End closes the span with success.
func (s Span) End() {
	if s.tr == nil {
		return
	}
	s.tr.mu.Lock()
	rec := &s.tr.spans[s.i-1]
	if rec.durNS < 0 {
		rec.durNS = int64(time.Since(s.tr.start)) - rec.startNS
	}
	s.tr.mu.Unlock()
}

// EndErr closes the span, recording err's message when non-nil.
func (s Span) EndErr(err error) {
	if s.tr == nil {
		return
	}
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	s.tr.mu.Lock()
	rec := &s.tr.spans[s.i-1]
	if rec.durNS < 0 {
		rec.durNS = int64(time.Since(s.tr.start)) - rec.startNS
	}
	if msg != "" {
		rec.err = msg
	}
	s.tr.mu.Unlock()
}

// Attr attaches typed attributes to the span; attributes beyond the
// per-span cap are silently dropped.
func (s Span) Attr(attrs ...Attr) Span {
	if s.tr == nil {
		return s
	}
	s.tr.mu.Lock()
	rec := &s.tr.spans[s.i-1]
	for _, a := range attrs {
		if rec.nattrs == maxSpanAttrs {
			break
		}
		rec.attrs[rec.nattrs] = a
		rec.nattrs++
	}
	s.tr.mu.Unlock()
	return s
}

// End completes the trace: computes wall duration, decides slow/error
// retention, exports NDJSON to the rings (and sink), and emits the
// slow/errored slog line. Idempotent; safe on nil. err annotates the
// trace root (independent of per-span errors).
func (tr *Trace) End(status int, err error) {
	if tr == nil {
		return
	}
	tr.endedMu.Lock()
	if tr.ended {
		tr.endedMu.Unlock()
		return
	}
	tr.ended = true
	tr.endedMu.Unlock()

	dur := time.Since(tr.start)
	t := tr.tracer
	tr.mu.Lock()
	if status != 0 {
		tr.status = status
	}
	if err != nil {
		tr.errMsg = err.Error()
	}
	slow := t.slow > 0 && dur >= t.slow
	tr.mu.Unlock()

	if tr.rec {
		t.exporter.export(tr, dur, slow, t.opt)
	}
	// Failures are logged where they are answered (service fail, router
	// forward); the tracer itself logs only slowness — the one condition
	// nothing else observes — with the span breakdown inlined.
	if lg := t.opt.Log; lg != nil && slow {
		msg := "slow request"
		attrs := make([]slog.Attr, 0, 8)
		attrs = append(attrs,
			slog.String("traceId", tr.tc.TraceID.String()),
			slog.String("requestId", tr.requestID),
			slog.String("name", tr.name),
			slog.Int("status", tr.status),
			slog.Duration("duration", dur),
		)
		if tr.shard != "" {
			attrs = append(attrs, slog.String("shard", tr.shard))
		}
		if err != nil {
			attrs = append(attrs, slog.String("error", err.Error()))
		}
		if tr.rec {
			attrs = append(attrs, slog.String("stages", tr.stageBreakdown()))
		}
		lg.LogAttrs(context.Background(), slog.LevelWarn, msg, attrs...)
	}
}
