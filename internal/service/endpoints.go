package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/ccnet/ccnet/internal/canon"
	"github.com/ccnet/ccnet/internal/cluster"
	"github.com/ccnet/ccnet/internal/core"
	"github.com/ccnet/ccnet/internal/fleetsim"
	"github.com/ccnet/ccnet/internal/netchar"
	"github.com/ccnet/ccnet/internal/optimize"
	"github.com/ccnet/ccnet/internal/perfab"
	"github.com/ccnet/ccnet/internal/scenario"
)

// endpoint is one row of the request pipeline's table: a keyed compute
// endpoint, served at POST /v1/<name> by the one HTTP handler, as a
// batch item of kind <name> when batch is set, and through Server.Stream
// when stream is set. A row holds only what differs between endpoints;
// the pipeline (pipeline.go) runs every row the same way.
type endpoint struct {
	name string
	// stream rows answer in NDJSON frames: progress lines while this
	// caller computes, then one terminal result or error frame.
	stream bool
	batch  bool
	// parse decodes body (doc names it in messages), validates it and
	// builds what its computation needs. A document that does not
	// decode fails with a scenario.Decode error; any other failure is
	// the spec's.
	parse func(body []byte, doc string) (request, error)
}

// request is one parsed document: key derives its canonical cache key
// and compute its result document, which the pipeline encodes. A
// streaming row reports progress lines through emit.
type request interface {
	key() (canon.Key, error)
	compute(ctx context.Context, emit func(line any)) (any, error)
}

var endpoints = [...]endpoint{
	{name: "evaluate", batch: true, parse: parseEvaluate},
	{name: "sweep", batch: true, parse: parseSweep},
	{name: "campaign", batch: true, parse: parseCampaign},
	{name: "optimize", stream: true, parse: parseOptimize},
	{name: "performability", stream: true, batch: true, parse: parsePerformability},
	{name: "fleetsim", stream: true, batch: true, parse: parseFleetSim},
}

// --- evaluate and sweep ----------------------------------------------------

// network is the built form of the system, message and model sections
// evaluate and sweep requests share.
type network struct {
	sys *cluster.System
	msg netchar.MessageSpec
	opt core.Options
}

// buildNetwork validates the shared sections, joining every problem —
// lambdaErr, the rate check each endpoint makes, last — into one error,
// then builds them.
func buildNetwork(system *scenario.SystemSpec, message MessageJSON, model *scenario.ModelSpec, storeAndForward bool, lambdaErr error) (network, error) {
	var errs []error
	if err := system.Validate(); err != nil {
		errs = append(errs, err)
	}
	errs = append(errs, message.validate()...)
	if err := model.Validate(); err != nil {
		errs = append(errs, err)
	}
	if lambdaErr != nil {
		errs = append(errs, lambdaErr)
	}
	if len(errs) > 0 {
		return network{}, errors.Join(errs...)
	}
	sys, err := system.Build("request")
	if err != nil {
		return network{}, err
	}
	return network{
		sys: sys,
		msg: netchar.MessageSpec{Flits: message.Flits, FlitBytes: message.FlitBytes},
		opt: model.Options(storeAndForward),
	}, nil
}

type evaluateRequest struct {
	EvaluateRequest
	network
}

func parseEvaluate(body []byte, doc string) (request, error) {
	r := new(evaluateRequest)
	if err := scenario.Decode(bytes.NewReader(body), &r.EvaluateRequest, doc); err != nil {
		return nil, err
	}
	var lambdaErr error
	if r.Lambda <= 0 || math.IsNaN(r.Lambda) || math.IsInf(r.Lambda, 0) {
		lambdaErr = fmt.Errorf("lambda: must be a positive finite rate, got %v", r.Lambda)
	}
	var err error
	if r.network, err = buildNetwork(&r.System, r.Message, &r.Model, r.StoreAndForward, lambdaErr); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *evaluateRequest) key() (canon.Key, error) {
	return canon.Hash("evaluate", hashableSystem(r.sys), r.msg, r.opt, r.Lambda)
}

func (r *evaluateRequest) compute(context.Context, func(any)) (any, error) {
	m, err := core.New(r.sys, r.msg, r.opt)
	if err != nil {
		return nil, err
	}
	return EvaluateResult{System: systemInfo(r.sys), PointJSON: pointJSON(m.Evaluate(r.Lambda))}, nil
}

type sweepRequest struct {
	SweepRequest
	network
	// spec is a synthetic one-series scenario that reuses the scenario
	// engine's model construction and grid materialization (auto grids
	// included).
	spec scenario.Spec
	grid []float64 // the materialized explicit grid; nil for auto grids
}

func parseSweep(body []byte, doc string) (request, error) {
	r := new(sweepRequest)
	if err := scenario.Decode(bytes.NewReader(body), &r.SweepRequest, doc); err != nil {
		return nil, err
	}
	var err error
	if r.network, err = buildNetwork(&r.System, r.Message, &r.Model, r.StoreAndForward, r.Lambda.Validate("lambda")); err != nil {
		return nil, err
	}
	r.spec = scenario.Spec{
		Name:   "sweep",
		System: r.System,
		Traffic: scenario.TrafficSpec{
			Flits:     r.Message.Flits,
			FlitBytes: []int{r.Message.FlitBytes},
			Lambda:    r.Lambda,
		},
		Model: r.Model,
	}
	// Explicit grids resolve without building any model and key on the
	// materialized rates. Auto grids would need the paper model's
	// saturation bisection just to materialize — so they key on the
	// resolved inputs instead (the grid is a pure function of them) and
	// defer materialization to compute, keeping cache hits cheap on both
	// shapes.
	if !r.Lambda.Auto {
		if r.grid, err = r.spec.Grid(nil); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *sweepRequest) key() (canon.Key, error) {
	if r.Lambda.Auto {
		la := r.Lambda
		if la.AutoFraction == 0 {
			la.AutoFraction = 0.95 // the documented default; hash it resolved
		}
		return canon.Hash("sweep-auto", hashableSystem(r.sys), r.msg, r.opt, la)
	}
	return canon.Hash("sweep", hashableSystem(r.sys), r.msg, r.opt, r.grid)
}

func (r *sweepRequest) compute(context.Context, func(any)) (any, error) {
	grid := r.grid
	var models []*core.Model
	if grid == nil { // auto grid: materialize from the paper model
		paper, err := r.spec.BuildModels(r.sys, false)
		if err != nil {
			return nil, err
		}
		if grid, err = r.spec.Grid(paper); err != nil {
			return nil, err
		}
		if !r.StoreAndForward {
			models = paper
		}
	}
	if models == nil {
		var err error
		if models, err = r.spec.BuildModels(r.sys, r.StoreAndForward); err != nil {
			return nil, err
		}
	}
	m := models[0]
	out := SweepResult{
		System:          systemInfo(r.sys),
		SaturationPoint: m.SaturationPoint(1.0, 1e-4),
	}
	for _, res := range m.SweepParallel(grid, 0) {
		out.Points = append(out.Points, pointJSON(res))
	}
	return out, nil
}

// --- scenario documents ------------------------------------------------------

// specKey hashes a scenario spec (campaign, performability or fleetsim)
// for endpoint with the one default the runners apply themselves
// resolved, so "seed omitted" and "seed": 1 share a cache entry.
func specKey(endpoint string, spec *scenario.Spec) (canon.Key, error) {
	norm := *spec
	if norm.Seed == 0 {
		norm.Seed = 1
	}
	return canon.Hash(endpoint, norm)
}

type campaignRequest struct{ spec *scenario.Spec }

func parseCampaign(body []byte, doc string) (request, error) {
	spec, err := scenario.Parse(bytes.NewReader(body), doc)
	if err != nil {
		return nil, err
	}
	return &campaignRequest{spec}, nil
}

func (r *campaignRequest) key() (canon.Key, error) { return specKey("campaign", r.spec) }

func (r *campaignRequest) compute(context.Context, func(any)) (any, error) {
	o := (&scenario.Runner{}).Run([]*scenario.Spec{r.spec})[0]
	if o.Err != nil {
		return nil, fmt.Errorf("scenario %s: %w", r.spec.Name, o.Err)
	}
	out := CampaignResult{
		Name:   o.Result.ID,
		Title:  o.Result.Title,
		System: systemInfo(o.Sys),
		Passed: o.Passed(),
		Notes:  o.Result.Notes,
	}
	for _, series := range o.Result.Series {
		cs := CampaignSeries{Label: series.Label}
		for _, p := range series.Points {
			cs.Points = append(cs.Points, CampaignPoint{
				Lambda:     p.Lambda,
				Analysis:   num(p.Analysis),
				AnalysisSF: num(p.AnalysisSF),
				Simulation: num(p.Simulation),
				SimCI:      num(p.SimCI),
			})
		}
		out.Series = append(out.Series, cs)
	}
	for _, a := range o.Assertions {
		out.Assertions = append(out.Assertions, AssertionJSON{
			Type: a.Spec.Type, Pass: a.Pass, Detail: a.Detail,
		})
	}
	return out, nil
}

// The performability and fleetsim parses assemble the engine's study
// up front: structural problems only the builder can see
// (C = 2(m/2)^n) must fail before a stream commits to its status line.

type perfabRequest struct {
	spec  *scenario.Spec
	study *perfab.Study
}

func parsePerformability(body []byte, doc string) (request, error) {
	spec, err := scenario.Parse(bytes.NewReader(body), doc)
	if err != nil {
		return nil, err
	}
	study, err := spec.PerformabilityStudy()
	if err != nil {
		return nil, err
	}
	return &perfabRequest{spec, study}, nil
}

func (r *perfabRequest) key() (canon.Key, error) { return specKey("performability", r.spec) }

func (r *perfabRequest) compute(ctx context.Context, emit func(any)) (any, error) {
	eng := &perfab.Engine{
		Progress: func(p perfab.Progress) { emit(PerfProgressLine{Kind: FrameProgress, Progress: p}) },
	}
	return eng.Run(ctx, r.study)
}

type fleetsimRequest struct {
	spec  *scenario.Spec
	study *fleetsim.Study
}

func parseFleetSim(body []byte, doc string) (request, error) {
	spec, err := scenario.Parse(bytes.NewReader(body), doc)
	if err != nil {
		return nil, err
	}
	study, err := spec.FleetStudy()
	if err != nil {
		return nil, err
	}
	return &fleetsimRequest{spec, study}, nil
}

func (r *fleetsimRequest) key() (canon.Key, error) { return specKey("fleetsim", r.spec) }

func (r *fleetsimRequest) compute(ctx context.Context, emit func(any)) (any, error) {
	eng := &fleetsim.Engine{
		EpochReady: func(em fleetsim.EpochMetrics) { emit(FleetEpochLine{Kind: FrameProgress, EpochMetrics: em}) },
	}
	return eng.Run(ctx, r.study)
}

// --- optimize ----------------------------------------------------------------

type optimizeRequest struct{ spec *optimize.SearchSpec }

func parseOptimize(body []byte, doc string) (request, error) {
	spec, err := optimize.Parse(bytes.NewReader(body), doc)
	if err != nil {
		return nil, err
	}
	return &optimizeRequest{spec}, nil
}

// key hashes the search spec with its seed default resolved, so "seed
// omitted" and "seed": 1 share a cache entry.
func (r *optimizeRequest) key() (canon.Key, error) {
	norm := *r.spec
	if norm.Seed == 0 {
		norm.Seed = 1
	}
	return canon.Hash("optimize", norm)
}

func (r *optimizeRequest) compute(ctx context.Context, emit func(any)) (any, error) {
	eng := &optimize.Engine{
		Progress: func(p optimize.Progress) { emit(OptimizeProgressLine{Kind: FrameProgress, Progress: p}) },
	}
	return eng.Run(ctx, r.spec)
}
