package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"github.com/ccnet/ccnet/internal/canon"
	"github.com/ccnet/ccnet/internal/perfab"
	"github.com/ccnet/ccnet/internal/scenario"
)

// performability computes one performability analysis through the cache
// without streaming progress; the batch executor uses it.
func (s *Server) performability(ctx context.Context, spec *scenario.Spec) (payload []byte, key canon.Key, class string, err error) {
	study, err := spec.PerformabilityStudy()
	if err != nil {
		return nil, "", "", badRequest(err)
	}
	if key, err = specKey("performability", spec); err != nil {
		return nil, "", "", err
	}
	payload, class, err = s.do(ctx, key, func() ([]byte, error) {
		eng := &perfab.Engine{Workers: s.workers()}
		rep, err := eng.Run(context.Background(), study)
		if err != nil {
			return nil, badRequest(err)
		}
		return json.Marshal(rep)
	})
	return payload, key, class, err
}

// RunPerformability executes one analysis, streaming NDJSON to w:
// "progress" frames while states evaluate (flushed immediately when w
// is an http.Flusher), then one terminal "result" frame. A spec already
// answered is served from the canonical-spec result cache as a single
// result frame with cached=true, and concurrent identical specs
// coalesce onto one computation (late arrivals stream no progress, just
// the shared result marked cached). The returned report is nil when
// this call did not run the analysis itself. `ccscen perf -ndjson` and
// POST /v1/performability share this path.
func (s *Server) RunPerformability(ctx context.Context, spec *scenario.Spec, w io.Writer) (*perfab.Report, error) {
	s.perfabs.Add(1)
	study, err := spec.PerformabilityStudy()
	if err != nil {
		s.failures.Add(1)
		return nil, badRequest(err)
	}
	return s.runPerformability(ctx, spec, study, w, BodyDigest{})
}

// runPerformability is RunPerformability with the study already built —
// the HTTP handler assembles it once for its pre-stream validation and
// hands it straight in, along with the body digest to alias.
func (s *Server) runPerformability(ctx context.Context, spec *scenario.Spec, study *perfab.Study, w io.Writer, digest BodyDigest) (*perfab.Report, error) {
	var rep *perfab.Report
	err := s.runStream(ctx, "performability", w, digest,
		func() (canon.Key, error) { return specKey("performability", spec) },
		func(emit func(any)) ([]byte, error) {
			eng := &perfab.Engine{
				Workers:  s.workers(),
				Progress: func(p perfab.Progress) { emit(PerfProgressLine{Kind: FrameProgress, Progress: p}) },
			}
			r, err := eng.Run(ctx, study)
			if err != nil {
				return nil, err
			}
			b, err := json.Marshal(r)
			rep = r
			return b, err
		})
	return rep, err
}

// handlePerformability serves POST /v1/performability: the body is a
// scenario spec with a performability block, decoded and validated up
// front (problems are a 400 APIError), then the analysis streams back
// as chunked NDJSON — progress frames and a terminal result frame. A
// client that disconnects cancels the analysis via the request context.
func (s *Server) handlePerformability(w http.ResponseWriter, r *http.Request) {
	s.perfabs.Add(1)
	spec, digest, answered := s.parseScenario(w, r, "performability")
	if answered {
		return
	}
	if spec.Performability == nil {
		s.fail(w, r, http.StatusBadRequest, badRequest(errors.New("performability: section required")))
		return
	}
	// Structural problems only the builder can see (C = 2(m/2)^n) must
	// fail before the status line commits to streaming.
	study, err := spec.PerformabilityStudy()
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, badRequest(err))
		return
	}
	startStream(w)
	_, _ = s.runPerformability(r.Context(), spec, study, w, digest)
}
