package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"

	"github.com/ccnet/ccnet/internal/canon"
	"github.com/ccnet/ccnet/internal/fleetsim"
	"github.com/ccnet/ccnet/internal/metrics"
	"github.com/ccnet/ccnet/internal/optimize"
	"github.com/ccnet/ccnet/internal/perfab"
	"github.com/ccnet/ccnet/internal/reqtrace"
)

// Every streaming endpoint (batch, optimize, performability, fleetsim)
// emits the same NDJSON line schema: zero or more "progress" frames
// carrying endpoint-specific fields, then exactly one terminal frame —
// a "result" (ResultLine) on success or an "error" (ErrorLine) when the
// computation died after the status line committed. Clients dispatch on
// the "kind" field alone and never need per-endpoint framing logic.
const (
	FrameProgress = "progress"
	FrameResult   = "result"
	FrameError    = "error"
)

// ResultLine is the terminal success frame of every streaming endpoint:
// the canonical cache key (empty for batch, whose summary is not a
// cacheable result), whether the result came from the cache, and the
// endpoint's result document (optimize report, performability report,
// fleetsim report, or batch summary). The server writes this shape with
// appendResult rather than encoding the struct.
type ResultLine struct {
	Kind   string          `json:"kind"` // always "result"
	Cached bool            `json:"cached"`
	Key    string          `json:"key,omitempty"`
	Result json.RawMessage `json:"result"`
}

// ErrorLine is the terminal in-band error frame: the same APIError
// envelope the JSON endpoints return as a non-2xx body, delivered on a
// stream whose HTTP status already committed to 200.
type ErrorLine struct {
	Kind  string   `json:"kind"` // always "error"
	Error APIError `json:"error"`
}

// OptimizeProgressLine is one incremental update of a running
// design-space search.
type OptimizeProgressLine struct {
	Kind string `json:"kind"` // always "progress"
	optimize.Progress
}

// PerfProgressLine is one incremental update of a running
// performability analysis.
type PerfProgressLine struct {
	Kind string `json:"kind"` // always "progress"
	perfab.Progress
}

// FleetEpochLine is one trajectory epoch of a running fleet simulation,
// streamed as soon as every state occupying the epoch has evaluated.
type FleetEpochLine struct {
	Kind string `json:"kind"` // always "progress"
	fleetsim.EpochMetrics
}

// BatchItemLine is one batch item's outcome: the item's position and
// identity, how it was answered (cache hit or computed), and either the
// endpoint-specific result document or the item's APIError.
type BatchItemLine struct {
	Kind     string          `json:"kind"` // always "progress"
	Index    int             `json:"index"`
	ID       string          `json:"id,omitempty"`
	ItemKind string          `json:"itemKind,omitempty"`
	Cached   bool            `json:"cached"`
	Key      string          `json:"key,omitempty"`
	Seconds  float64         `json:"seconds"`
	Result   json.RawMessage `json:"result,omitempty"`
	Error    *APIError       `json:"error,omitempty"`
}

// stream bundles the per-endpoint NDJSON plumbing every streaming
// handler shares: one encoder, flush-per-line when the writer is an
// http.Flusher, the per-endpoint line counter, write-error accounting,
// and the request ID for error frames.
type stream struct {
	srv     *Server
	w       io.Writer
	enc     *json.Encoder
	flusher http.Flusher
	lines   *metrics.Counter
	reqID   string

	// mu orders progress writes, which come from the computation's
	// goroutine, against detach; closed ends them.
	mu     sync.Mutex
	closed bool
}

// newStream opens the per-endpoint stream accounting; the returned
// closer decrements the active-streams gauge.
func (s *Server) newStream(ctx context.Context, endpoint string, w io.Writer) (*stream, func()) {
	g := s.m.activeStreams.With(endpoint)
	g.Add(1)
	flusher, _ := w.(http.Flusher)
	return &stream{
		srv:     s,
		w:       w,
		enc:     json.NewEncoder(w),
		flusher: flusher,
		lines:   s.m.streamLines.With(endpoint),
		reqID:   RequestIDFrom(ctx),
	}, func() { g.Add(-1) }
}

// emit writes one frame line, counting and flushing it. An encode
// failure means the client hung up: it is counted in writeErrors and
// returned so the caller can stop streaming.
func (st *stream) emit(line any) error {
	return st.sent(st.enc.Encode(line))
}

// progress writes one progress frame of a computation this stream's
// caller started. After a failed write (the client is gone) or detach,
// the computation keeps going for the requests sharing it, and its
// lines are dropped.
func (st *stream) progress(line any) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.closed && st.emit(line) != nil {
		st.closed = true
	}
}

// detach ends progress: once it returns, no progress line is being
// written or will be.
func (st *stream) detach() {
	st.mu.Lock()
	st.closed = true
	st.mu.Unlock()
}

// emitResult writes the terminal success frame, its bytes assembled
// around the stored payload by appendResult.
func (st *stream) emitResult(cached bool, key canon.Key, payload []byte) error {
	_, err := st.w.Write(appendResult(nil, true, cached, key, payload))
	return st.sent(err)
}

// sent accounts for one written line: counted and flushed, or a write
// error counted and returned.
func (st *stream) sent(err error) error {
	if err != nil {
		st.srv.writeErrors.Add(1)
		return err
	}
	st.lines.Inc()
	if st.flusher != nil {
		st.flusher.Flush()
	}
	return nil
}

// emitError writes the terminal in-band error frame. Encode errors here
// mean the client is gone — nothing left to tell it.
func (st *stream) emitError(err error) {
	_ = st.emit(ErrorLine{Kind: FrameError, Error: apiErrorFor(st.reqID, err)})
}

// startStream commits a streaming endpoint's 200 and NDJSON content
// type, once the request has passed every check that can still answer
// with a status code.
func startStream(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
}

// runStream answers one parsed request of a streaming row as NDJSON on
// w: a cached or coalesced answer is the single terminal result frame,
// while the caller that starts the computation streams its progress
// frames first. A failure becomes the terminal error frame. On success
// digest (zero when there is no request body) is aliased to the entry
// under key, and the result payload is returned.
func (s *Server) runStream(ctx context.Context, e *endpoint, req request, w io.Writer, digest BodyDigest) ([]byte, error) {
	st, done := s.newStream(ctx, e.name, w)
	defer done()
	payload, key, class, err := s.answer(ctx, req, st.progress)
	// The computation may outlive this caller while other requests wait
	// on it; from here on it writes nothing more to w.
	st.detach()
	setHitClass(w, class)
	if err != nil {
		s.failures.Add(1)
		reqtrace.FromContext(ctx).SetError(err.Error())
		st.emitError(err) // streaming has begun: report the failure in-band
		return nil, err
	}
	s.cache.AddAlias(digest, key)
	return payload, st.emitResult(cachedClass(class), key, payload)
}
