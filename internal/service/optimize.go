package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"

	"github.com/ccnet/ccnet/internal/canon"
	"github.com/ccnet/ccnet/internal/optimize"
	"github.com/ccnet/ccnet/internal/reqtrace"
)

// optimizeKey hashes the search spec with its defaults resolved, so
// "seed omitted" and "seed": 1 share a cache entry.
func optimizeKey(spec *optimize.SearchSpec) (canon.Key, error) {
	norm := *spec
	if norm.Seed == 0 {
		norm.Seed = 1
	}
	return canon.Hash("optimize", norm)
}

// RunOptimize executes one design-space search, streaming NDJSON to w:
// "progress" frames while the search runs (flushed immediately when w
// is an http.Flusher), then one terminal "result" frame. A spec already
// answered is served from the canonical-spec result cache as a single
// result frame with cached=true, and concurrent identical specs
// coalesce onto one computation (the late arrivals stream no progress,
// just the shared result marked cached). The returned report is nil
// when this call did not run the search itself. `ccscen optimize
// -ndjson` and POST /v1/optimize share this path.
func (s *Server) RunOptimize(ctx context.Context, spec *optimize.SearchSpec, w io.Writer) (*optimize.Report, error) {
	s.optimizes.Add(1)
	return s.runOptimize(ctx, spec, w, BodyDigest{})
}

// runOptimize is RunOptimize with the body digest to alias. Concurrent
// identical specs coalesce onto one search: the winning caller runs the
// engine (and owns the progress stream); later arrivals block without
// progress lines and share the result. If the winner disconnects
// mid-search its context aborts the shared computation — the sharers
// get the error frame and may retry against a now-warm cache.
func (s *Server) runOptimize(ctx context.Context, spec *optimize.SearchSpec, w io.Writer, digest BodyDigest) (*optimize.Report, error) {
	var rep *optimize.Report
	err := s.runStream(ctx, "optimize", w, digest,
		func() (canon.Key, error) { return optimizeKey(spec) },
		func(emit func(any)) ([]byte, error) {
			eng := &optimize.Engine{
				Workers:  s.workers(),
				Progress: func(p optimize.Progress) { emit(OptimizeProgressLine{Kind: FrameProgress, Progress: p}) },
			}
			r, err := eng.Run(ctx, spec)
			if err != nil {
				return nil, err
			}
			b, err := json.Marshal(r)
			rep = r
			return b, err
		})
	return rep, err
}

// handleOptimize serves POST /v1/optimize: the spec is decoded and
// validated up front (problems are a 400 APIError), then the search
// streams back as chunked NDJSON — progress frames and a terminal
// result frame, exactly the RunOptimize format. A client that
// disconnects cancels the search via the request context.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	s.optimizes.Add(1)
	body, digest, answered := s.answerRepeat(w, r, "optimize")
	if answered {
		return
	}
	sp := reqtrace.FromContext(r.Context()).StartSpan("decode")
	spec, err := optimize.Parse(bytes.NewReader(body), "request")
	sp.EndErr(err)
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, badRequest(err))
		return
	}
	startStream(w)
	_, _ = s.runOptimize(r.Context(), spec, w, digest)
}
