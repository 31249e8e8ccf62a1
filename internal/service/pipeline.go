package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/ccnet/ccnet/internal/canon"
	"github.com/ccnet/ccnet/internal/reqtrace"
	"github.com/ccnet/ccnet/internal/scenario"
)

// The request pipeline runs every row of the endpoint table the same
// way, whichever surface the document arrives on — the HTTP handler
// (handle), a batch item (execBatchItem) or Stream: parse under the
// "decode" span, key under "canon", then the result cache ("cache") and
// the flight group, where the caller that starts the computation records
// "compute" and callers that share it record "wait". Error codes follow
// one rule, applied here: a document that does not decode is
// bad_request, one the row or its engine rejects is invalid_spec, and a
// cancelled computation or a service fault is internal.

// rowIndex returns the index of the table row named name, or -1.
func rowIndex(name string) int {
	for i := range endpoints {
		if endpoints[i].name == name {
			return i
		}
	}
	return -1
}

// ComputeEndpoints lists the spec-carrying POST endpoints, each served
// at /v1/<name>: the pipeline's rows, then batch. The router shards
// exactly these by body key.
func ComputeEndpoints() []string {
	names := make([]string, 0, len(endpoints)+1)
	for i := range endpoints {
		names = append(names, endpoints[i].name)
	}
	return append(names, "batch")
}

// noProgress is the emit of callers that stream nothing: the JSON rows
// and batch items.
func noProgress(any) {}

// handle is the one HTTP handler of the keyed endpoints, serving row i.
// An exact repeat of an answered body is answered by its digest before
// anything is decoded. Otherwise the body is parsed — a failure is a
// 400 APIError — and answered through the pipeline: as an enveloped
// JSON document, or for a streaming row as NDJSON frames after a
// committed 200. A client that disconnects stops waiting; its
// computation stops too unless another request waits on the same key.
func (s *Server) handle(i int) http.HandlerFunc {
	e := &endpoints[i]
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests[i].Add(1)
		body, digest, answered := s.answerRepeat(w, r, e)
		if answered {
			return
		}
		ctx := r.Context()
		req, err := parse(ctx, e, body, "request")
		if err != nil {
			s.fail(w, r, err)
			return
		}
		if e.stream {
			startStream(w)
			_, _ = s.runStream(ctx, e, req, w, digest)
			return
		}
		payload, key, class, err := s.answer(ctx, req, noProgress)
		s.finish(w, r, digest, key, payload, class, err)
	}
}

// Stream answers one document of a streaming endpoint (optimize,
// performability, fleetsim) exactly as POST /v1/<endpoint> does: it
// writes the NDJSON frames to w — progress frames while this call
// computes, then the terminal result or error frame — and returns the
// result payload. A document that does not parse is returned as an
// error before anything is written. `ccscen optimize|perf|fleet
// -ndjson` run through it.
func (s *Server) Stream(ctx context.Context, endpoint string, body []byte, w io.Writer) ([]byte, error) {
	i := rowIndex(endpoint)
	if i < 0 || !endpoints[i].stream {
		return nil, fmt.Errorf("service: %q is not a streaming endpoint", endpoint)
	}
	s.requests[i].Add(1)
	req, err := parse(ctx, &endpoints[i], body, "request")
	if err != nil {
		s.failures.Add(1)
		return nil, err
	}
	return s.runStream(ctx, &endpoints[i], req, w, BodyDigest{})
}

// parse runs row e's parse under the "decode" span and tags a failure
// with its code: bad_request when the document does not decode,
// invalid_spec when it decodes but the row rejects it.
func parse(ctx context.Context, e *endpoint, body []byte, doc string) (request, error) {
	sp := reqtrace.FromContext(ctx).StartSpan("decode")
	req, err := e.parse(body, doc)
	sp.EndErr(err)
	switch {
	case err == nil:
		return req, nil
	case scenario.IsDecodeError(err):
		return nil, badRequest(err)
	default:
		return nil, invalidSpec(err)
	}
}

// answer keys req under the "canon" span and answers it from the cache,
// or through the flight group so that concurrent identical requests
// compute once. class reports how the answer was produced: classHit
// (from the cache, also when the flight found the result there),
// classCoalesced (shared another caller's flight) or classMiss (started
// the flight and computed). A flight runs under its own context,
// cancelled only when its last waiter leaves; emit receives the progress
// lines of a flight this caller starts. A compute error is the spec's
// (invalid_spec) unless the flight was cancelled; failing to key or
// encode is the service's fault.
func (s *Server) answer(ctx context.Context, req request, emit func(any)) ([]byte, canon.Key, string, error) {
	tr := reqtrace.FromContext(ctx)
	sp := tr.StartSpan("canon")
	key, err := req.key()
	sp.EndErr(err)
	if err != nil {
		return nil, "", "", err
	}
	cs := tr.StartSpan("cache")
	if v, ok := s.cache.Get(key); ok {
		cs.Attr(hitAttr, viaKey).End()
		return v, key, classHit, nil
	}
	cs.Attr(viaKey).End()
	flightStart := time.Now()
	var found atomic.Bool
	v, err, shared := s.flight.Join(ctx, string(key), func(ctx context.Context) ([]byte, error) {
		v, ok, err := s.fly(ctx, tr, key, req, emit)
		found.Store(ok)
		return v, err
	})
	switch {
	case shared:
		s.coalesced.Add(1)
		tr.RecordSpan("wait", flightStart, time.Since(flightStart)).
			Attr(reqtrace.String("class", classCoalesced))
		return v, key, classCoalesced, err
	case err == nil && found.Load():
		return v, key, classHit, nil
	}
	return v, key, classMiss, err
}

// fly is the flight answer starts for key. It looks the cache up once
// more before computing, without counting a second lookup: another
// flight for key may have stored its result and landed between answer's
// lookup and its Join, and then found is true and nothing computes.
// Otherwise it computes req under the "compute" span and caches the
// encoded result.
func (s *Server) fly(ctx context.Context, tr *reqtrace.Trace, key canon.Key, req request, emit func(any)) (payload []byte, found bool, err error) {
	if v, ok := s.cache.recheck(key); ok {
		return v, true, nil
	}
	s.computes.Add(1)
	sp := tr.StartSpan("compute")
	res, err := req.compute(ctx, emit)
	switch {
	case err == nil:
		payload, err = json.Marshal(res)
	case ctx.Err() == nil:
		err = invalidSpec(err)
	}
	sp.EndErr(err)
	if err == nil {
		s.cache.Put(key, payload)
	}
	return payload, false, err
}

// Attributes of the "cache" span: how the entry was looked up (by body
// digest before decoding, or by canonical key after it), and class=hit
// when the lookup answered.
var (
	hitAttr = reqtrace.String("class", classHit)
	viaBody = reqtrace.String("via", "body")
	viaKey  = reqtrace.String("via", "key")
)

// answerRepeat is the first step of the one handler: it reads the body
// once and looks its BodyDigest up in the result cache before anything
// is decoded. An exact repeat of an answered body gets the same response
// a cache hit on its canonical key gets — the envelope, or the single
// NDJSON result frame — and answered is true, as it is when the body
// cannot be read (a 400). Otherwise the caller parses body and hands
// digest to finish or runStream, which alias it to the entry once the
// request has succeeded.
func (s *Server) answerRepeat(w http.ResponseWriter, r *http.Request, e *endpoint) (body []byte, digest BodyDigest, answered bool) {
	cs := reqtrace.FromContext(r.Context()).StartSpan("cache")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		cs.EndErr(err)
		s.fail(w, r, badRequest(fmt.Errorf("reading request body: %w", err)))
		return nil, digest, true
	}
	digest = digestBody(e.name, body)
	key, payload, ok := s.cache.GetAlias(digest)
	if !ok {
		cs.Attr(viaBody).End()
		return body, digest, false
	}
	cs.Attr(hitAttr, viaBody).End()
	if !e.stream {
		s.finish(w, r, BodyDigest{}, key, payload, classHit, nil)
		return nil, digest, true
	}
	startStream(w)
	st, done := s.newStream(r.Context(), e.name, w)
	defer done()
	setHitClass(w, classHit)
	_ = st.emitResult(true, key, payload)
	return nil, digest, true
}
