package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"github.com/ccnet/ccnet/internal/canon"
	"github.com/ccnet/ccnet/internal/fleetsim"
	"github.com/ccnet/ccnet/internal/scenario"
)

// fleetsimItem computes one fleet simulation through the cache without
// streaming epochs; the batch executor uses it.
func (s *Server) fleetsimItem(ctx context.Context, spec *scenario.Spec) (payload []byte, key canon.Key, class string, err error) {
	study, err := spec.FleetStudy()
	if err != nil {
		return nil, "", "", badRequest(err)
	}
	if key, err = specKey("fleetsim", spec); err != nil {
		return nil, "", "", err
	}
	payload, class, err = s.do(ctx, key, func() ([]byte, error) {
		eng := &fleetsim.Engine{Workers: s.workers()}
		rep, err := eng.Run(context.Background(), study)
		if err != nil {
			return nil, badRequest(err)
		}
		return json.Marshal(rep)
	})
	return payload, key, class, err
}

// RunFleetSim executes one fleet simulation, streaming NDJSON to w:
// epoch "progress" frames as the trajectory evaluates (flushed
// immediately when w is an http.Flusher), then one terminal "result"
// frame. A spec already answered is served from the canonical-spec
// result cache as a single result frame with cached=true, and
// concurrent identical specs coalesce onto one computation (late
// arrivals stream no epochs, just the shared result marked cached). The
// returned report is nil when this call did not run the simulation
// itself. `ccscen fleet -ndjson` and POST /v1/fleetsim share this path.
func (s *Server) RunFleetSim(ctx context.Context, spec *scenario.Spec, w io.Writer) (*fleetsim.Report, error) {
	s.fleetsims.Add(1)
	study, err := spec.FleetStudy()
	if err != nil {
		s.failures.Add(1)
		return nil, badRequest(err)
	}
	return s.runFleetSim(ctx, spec, study, w, BodyDigest{})
}

// runFleetSim is RunFleetSim with the study already built — the HTTP
// handler assembles it once for its pre-stream validation and hands it
// straight in, along with the body digest to alias.
func (s *Server) runFleetSim(ctx context.Context, spec *scenario.Spec, study *fleetsim.Study, w io.Writer, digest BodyDigest) (*fleetsim.Report, error) {
	var rep *fleetsim.Report
	err := s.runStream(ctx, "fleetsim", w, digest,
		func() (canon.Key, error) { return specKey("fleetsim", spec) },
		func(emit func(any)) ([]byte, error) {
			eng := &fleetsim.Engine{
				Workers:    s.workers(),
				EpochReady: func(em fleetsim.EpochMetrics) { emit(FleetEpochLine{Kind: FrameProgress, EpochMetrics: em}) },
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

// handleFleetSim serves POST /v1/fleetsim: the body is a kind "fleetsim"
// scenario spec (performability + fleetsim sections), decoded and
// validated up front (problems are a 400 APIError), then the trajectory
// streams back as chunked NDJSON — epoch progress frames and a terminal
// result frame. A client that disconnects cancels the evaluation via
// the request context.
func (s *Server) handleFleetSim(w http.ResponseWriter, r *http.Request) {
	s.fleetsims.Add(1)
	spec, digest, answered := s.parseScenario(w, r, "fleetsim")
	if answered {
		return
	}
	if spec.FleetSim == nil {
		s.fail(w, r, http.StatusBadRequest, badRequest(errors.New("fleetsim: section required")))
		return
	}
	// Structural problems only the builder can see (C = 2(m/2)^n) must
	// fail before the status line commits to streaming.
	study, err := spec.FleetStudy()
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, badRequest(err))
		return
	}
	startStream(w)
	_, _ = s.runFleetSim(r.Context(), spec, study, w, digest)
}
