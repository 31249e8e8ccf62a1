package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/ccnet/ccnet/internal/cluster"
	"github.com/ccnet/ccnet/internal/core"
	"github.com/ccnet/ccnet/internal/fleetsim"
	"github.com/ccnet/ccnet/internal/netchar"
	"github.com/ccnet/ccnet/internal/optimize"
	"github.com/ccnet/ccnet/internal/perfab"
	"github.com/ccnet/ccnet/internal/scenario"
	"github.com/ccnet/ccnet/internal/service"
)

// computed is one spec computed in-process through the packages' public
// entry points, timed per layer.
type computed struct {
	// result is the answer the service must give, byte for byte; nil for
	// campaigns, whose answer is checked against the in-process handler.
	result []byte
	build  time.Duration // scenario: decode, validate and build the spec
	// core rungs (reads only): model construction, one evaluation, and a
	// sweep with its saturation search.
	coreBuild, coreEval, coreSweep time.Duration
	// engine is the engine or campaign run (heavy specs only); units is the
	// work it reports: states, candidates or DES events.
	engine time.Duration
	units  float64
}

// compute runs sp, given as body, the way the service would.
func compute(sp *spec, body []byte) (computed, error) {
	var c computed
	switch sp.kind {
	case kEvaluate:
		t0 := time.Now()
		var req service.EvaluateRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return c, err
		}
		sys, msg, err := buildRead(req.System, req.Message)
		if err != nil {
			return c, err
		}
		t1 := time.Now()
		m, err := core.New(sys, msg, req.Model.Options(req.StoreAndForward))
		if err != nil {
			return c, err
		}
		t2 := time.Now()
		res := m.Evaluate(req.Lambda)
		t3 := time.Now()
		c.build, c.coreBuild, c.coreEval = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
		c.result, err = json.Marshal(service.EvaluateResult{System: sysInfo(sys), PointJSON: point(res)})
		return c, err
	case kSweep:
		t0 := time.Now()
		var req service.SweepRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return c, err
		}
		sys, msg, err := buildRead(req.System, req.Message)
		if err != nil {
			return c, err
		}
		la := req.Lambda
		grid := core.LambdaGrid(la.Max/float64(la.Points), la.Max, la.Points)
		t1 := time.Now()
		m, err := core.New(sys, msg, req.Model.Options(req.StoreAndForward))
		if err != nil {
			return c, err
		}
		t2 := time.Now()
		out := service.SweepResult{System: sysInfo(sys), SaturationPoint: m.SaturationPoint(1.0, 1e-4)}
		for _, res := range m.SweepParallel(grid, runtime.GOMAXPROCS(0)) {
			out.Points = append(out.Points, point(res))
		}
		t3 := time.Now()
		c.build, c.coreBuild, c.coreSweep = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
		c.result, err = json.Marshal(out)
		return c, err
	case kOptimize:
		t0 := time.Now()
		ss, err := optimize.Parse(bytes.NewReader(body), "request")
		if err != nil {
			return c, err
		}
		t1 := time.Now()
		rep, err := (&optimize.Engine{}).Run(context.Background(), ss)
		if err != nil {
			return c, err
		}
		c.build, c.engine, c.units = t1.Sub(t0), time.Since(t1), float64(rep.Evaluated)
		c.result, err = json.Marshal(rep)
		return c, err
	}

	t0 := time.Now()
	sc, err := scenario.Parse(bytes.NewReader(body), "request")
	if err != nil {
		return c, err
	}
	switch sp.kind {
	case kPerfab:
		st, err := sc.PerformabilityStudy()
		if err != nil {
			return c, err
		}
		t1 := time.Now()
		rep, err := (&perfab.Engine{}).Run(context.Background(), st)
		if err != nil {
			return c, err
		}
		c.build, c.engine, c.units = t1.Sub(t0), time.Since(t1), float64(rep.StatesEvaluated)
		c.result, err = json.Marshal(rep)
		return c, err
	case kFleetsim:
		st, err := sc.FleetStudy()
		if err != nil {
			return c, err
		}
		t1 := time.Now()
		rep, err := (&fleetsim.Engine{}).Run(context.Background(), st)
		if err != nil {
			return c, err
		}
		c.build, c.engine, c.units = t1.Sub(t0), time.Since(t1), float64(rep.UniqueStates)
		c.result, err = json.Marshal(rep)
		return c, err
	case kCampaign:
		t1 := time.Now()
		o := (&scenario.Runner{}).Run([]*scenario.Spec{sc})[0]
		if o.Err != nil {
			return c, o.Err
		}
		c.build, c.engine = t1.Sub(t0), time.Since(t1)
		for _, s := range o.Result.Series {
			for _, p := range s.Points {
				c.units += float64(p.SimEvents)
			}
		}
		return c, nil
	}
	return c, fmt.Errorf("compute: unknown kind %q", sp.kind)
}

// buildRead validates and builds the system of an evaluate or sweep body.
func buildRead(ss scenario.SystemSpec, m service.MessageJSON) (*cluster.System, netchar.MessageSpec, error) {
	msg := netchar.MessageSpec{Flits: m.Flits, FlitBytes: m.FlitBytes}
	if err := ss.Validate(); err != nil {
		return nil, msg, err
	}
	sys, err := ss.Build("request")
	return sys, msg, err
}

func sysInfo(sys *cluster.System) service.SystemInfo {
	return service.SystemInfo{Nodes: sys.TotalNodes(), Clusters: sys.NumClusters(), Ports: sys.Ports}
}

func point(res *core.Result) service.PointJSON {
	return service.PointJSON{
		Lambda:      res.Lambda,
		Saturated:   res.Saturated,
		MeanLatency: finite(res.MeanLatency),
		MeanIntra:   finite(res.MeanIntra),
		MeanInter:   finite(res.MeanInter),
	}
}

// finite maps a model value to its JSON form: NaN and ±Inf are null.
func finite(f float64) *float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil
	}
	return &f
}
