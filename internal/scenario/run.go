package scenario

import (
	"cmp"
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"time"

	"github.com/ccnet/ccnet/internal/batch"
	"github.com/ccnet/ccnet/internal/cluster"
	"github.com/ccnet/ccnet/internal/core"
	"github.com/ccnet/ccnet/internal/netchar"
	"github.com/ccnet/ccnet/internal/rng"
	"github.com/ccnet/ccnet/internal/sim"
	"github.com/ccnet/ccnet/internal/stats"
	"github.com/ccnet/ccnet/internal/traffic"
)

// Runner executes scenario campaigns. The zero value runs at the spec's
// full message counts. Analytical sweeps and simulation jobs fan out on
// the parallel loop (internal/batch), and results are bit-identical at
// any GOMAXPROCS: every simulation job derives its seed from the
// scenario seed, the scenario name and the job's grid position, never
// from scheduling order.
type Runner struct {
	// Quick replaces the simulation message counts with 2000 warm-up /
	// 15000 measured, for fast smoke runs of simulation-heavy campaigns.
	Quick bool
	// Explain records, beside the result, each model column's knee and
	// per-cluster terms (Series.Models) and each simulated point's stage
	// split (Point.Sim). It leaves every other field of the result as it
	// is; Render prints the breakdowns.
	Explain bool
}

// Outcome is one scenario's campaign result.
type Outcome struct {
	Spec   *Spec
	Sys    *cluster.System
	Result *Result
	// Assertions holds one entry per spec assertion, in order.
	Assertions []AssertionResult
	// Err reports a hard failure (bad system build, simulator error);
	// when set, Result may be nil or partial.
	Err error
	// Elapsed measures from campaign start to this scenario's completion
	// (simulation jobs of different scenarios interleave in one pool, so
	// no tighter per-scenario wall time exists).
	Elapsed time.Duration
}

// AssertionResult is one evaluated assertion.
type AssertionResult struct {
	Spec   AssertionSpec
	Pass   bool
	Detail string
}

// Passed reports whether the scenario ran and every assertion held.
func (o *Outcome) Passed() bool {
	if o.Err != nil {
		return false
	}
	for _, a := range o.Assertions {
		if !a.Pass {
			return false
		}
	}
	return true
}

// prepared is a scenario expanded for execution.
type prepared struct {
	spec    *Spec
	sys     *cluster.System
	pattern traffic.Pattern
	grid    []float64
	// paper and sf hold one model per flit-size series (sf nil when the
	// analysisSF column is off).
	paper, sf []*core.Model
	result    *Result
	base      *rng.Stream
}

// simJob is one simulation unit: every replication of one grid point of
// one series of one scenario. Its output slot and seed stream are fixed
// by position, so the worker pool's scheduling cannot affect results.
type simJob struct {
	p      *prepared
	series int
	point  int
}

// Run executes the campaign: scenarios are prepared and analytically
// swept in order (each sweep fans its grid across the worker pool via
// core.SweepParallel), then every simulation job of every scenario is
// drained through one shared pool, and finally assertions are evaluated.
// One scenario's failure does not stop the others; inspect each
// Outcome's Err and Passed.
func (r *Runner) Run(specs []*Spec) []*Outcome {
	outcomes := make([]*Outcome, len(specs))
	preps := make([]*prepared, len(specs))
	starts := make([]time.Time, len(specs))
	var jobs []simJob
	for i, s := range specs {
		starts[i] = time.Now()
		outcomes[i] = &Outcome{Spec: s}
		p, err := r.prepare(s)
		if err != nil {
			outcomes[i].Err = err
			outcomes[i].Elapsed = time.Since(starts[i])
			continue
		}
		preps[i] = p
		outcomes[i].Sys = p.sys
		outcomes[i].Result = p.result
		jobs = append(jobs, p.simJobs()...)
	}

	// One loop drains every scenario's simulation grid — the campaign's
	// heavy phase parallelizes across scenarios and grid points alike.
	// Run fails only through its context or done, and neither can end
	// here: a campaign is not cancellable yet.
	errs := make([]error, len(jobs))
	_ = batch.Run(context.TODO(), len(jobs), 0, func(_, i int) {
		warmup, measure := r.simCounts(jobs[i].p.spec)
		errs[i] = jobs[i].run(warmup, measure, r.Explain)
	}, nil)
	for i, err := range errs {
		if err != nil {
			out := outcomeOf(outcomes, preps, jobs[i].p)
			if out.Err == nil {
				out.Err = err
			}
		}
	}

	for i, p := range preps {
		if p == nil {
			continue
		}
		if outcomes[i].Err == nil {
			outcomes[i].Assertions = p.evaluateAssertions()
		}
		outcomes[i].Elapsed = time.Since(starts[i])
	}
	return outcomes
}

func outcomeOf(outcomes []*Outcome, preps []*prepared, p *prepared) *Outcome {
	for i, q := range preps {
		if q == p {
			return outcomes[i]
		}
	}
	panic("scenario: job without outcome")
}

// prepare builds the system and models, materializes the grid, runs the
// analytical columns through SweepParallel, and lays out the result with
// NaN simulation slots for the simulation loop to fill.
func (r *Runner) prepare(s *Spec) (*prepared, error) {
	sys, err := s.BuildSystem()
	if err != nil {
		return nil, err
	}
	pattern, err := s.Pattern(sys)
	if err != nil {
		return nil, err
	}
	p := &prepared{spec: s, sys: sys, pattern: pattern}

	if p.paper, err = s.BuildModels(sys, false); err != nil {
		return nil, err
	}
	if s.Engines.analysisSFOn() {
		if p.sf, err = s.BuildModels(sys, true); err != nil {
			return nil, err
		}
	} else {
		p.sf = make([]*core.Model, len(p.paper))
	}

	if p.grid, err = s.Grid(p.paper); err != nil {
		return nil, err
	}

	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	h := fnv.New64a()
	h.Write([]byte(s.Name))
	p.base = rng.New(seed, h.Sum64())

	p.result = &Result{ID: s.Name, Title: s.effectiveTitle()}
	for si, dm := range s.Traffic.FlitBytes {
		series := Series{Label: fmt.Sprintf("Lm=%d", dm)}
		var analysis, sf []*core.Result
		if s.Engines.analysisOn() {
			analysis = p.paper[si].SweepParallel(p.grid, 0)
			if r.Explain {
				series.Models = append(series.Models, explainModel("analysis", p.paper[si], analysis))
			}
		}
		if s.Engines.analysisSFOn() {
			sf = p.sf[si].SweepParallel(p.grid, 0)
			if r.Explain {
				series.Models = append(series.Models, explainModel("analysisSF", p.sf[si], sf))
			}
		}
		for gi, l := range p.grid {
			pt := Point{Lambda: l, Analysis: math.NaN(),
				AnalysisSF: math.NaN(), Simulation: math.NaN()}
			if analysis != nil {
				pt.Analysis = analysis[gi].MeanLatency
			}
			if sf != nil {
				pt.AnalysisSF = sf[gi].MeanLatency
			}
			series.Points = append(series.Points, pt)
		}
		p.result.Series = append(p.result.Series, series)
	}
	patName := "uniform"
	if pattern != nil {
		patName = pattern.Name()
	}
	p.result.Notes = append(p.result.Notes, fmt.Sprintf(
		"scenario %s: system %s (N=%d, C=%d, m=%d), M=%d flits, pattern %s",
		s.Name, sys.Name, sys.TotalNodes(), sys.NumClusters(), sys.Ports,
		s.Traffic.Flits, patName))
	return p, nil
}

// simCounts resolves the warm-up/measure message counts, honoring Quick.
func (r *Runner) simCounts(s *Spec) (warmup, measure uint64) {
	if r.Quick {
		return 2000, 15000
	}
	return s.Engines.Warmup, s.Engines.Measure // zeros fall to sim defaults
}

// simJobs expands the scenario into its simulation grid points.
func (p *prepared) simJobs() []simJob {
	if !p.spec.Engines.Simulation {
		return nil
	}
	every := p.spec.Engines.SimEvery
	if every == 0 {
		every = 2
	}
	var jobs []simJob
	for si := range p.spec.Traffic.FlitBytes {
		for gi := range p.grid {
			if gi%every == 0 {
				jobs = append(jobs, simJob{p: p, series: si, point: gi})
			}
		}
	}
	return jobs
}

// run executes every replication of the job and fills its result slot;
// with explain, the first replication also fills the point's breakdown.
func (j simJob) run(warmup, measure uint64, explain bool) error {
	s := j.p.spec
	msg := netchar.MessageSpec{Flits: s.Traffic.Flits, FlitBytes: s.Traffic.FlitBytes[j.series]}
	pt := &j.p.result.Series[j.series].Points[j.point]

	reps := s.Engines.Replications
	if reps == 0 {
		reps = 1
	}
	var acc stats.Accumulator
	var singleCI float64
	saturated := false
	for rep := 0; rep < reps && !saturated; rep++ {
		// Position-derived seed: (series, point, replication) → stream.
		id := uint64(j.series)<<40 | uint64(j.point)<<16 | uint64(rep)
		seed := j.p.base.Derive(id).Uint64()
		m, err := sim.Run(sim.Config{
			Sys: j.p.sys, Msg: msg, Lambda: j.p.grid[j.point],
			Pattern: j.p.pattern, Seed: seed,
			WarmupCount: warmup, MeasureCount: measure,
			MaxBacklog:         s.Engines.MaxBacklog,
			BufferDepth:        s.Engines.BufferDepth,
			CollectChannelUtil: explain && rep == 0,
		})
		if err != nil {
			return fmt.Errorf("scenario %s: sim Lm=%d λ=%.3g: %w",
				s.Name, msg.FlitBytes, j.p.grid[j.point], err)
		}
		if explain && rep == 0 {
			pt.Sim = explainSim(m)
		}
		pt.SimEvents += m.Events
		if m.Saturated {
			saturated = true
			break
		}
		acc.Add(m.MeanLatency())
		singleCI = m.Latency.CI95()
	}
	switch {
	case saturated:
		pt.Simulation = math.Inf(1)
	case acc.Count() > 1:
		pt.Simulation = acc.Mean()
		pt.SimCI = acc.CI95T()
	default:
		pt.Simulation = acc.Mean()
		pt.SimCI = singleCI
	}
	return nil
}

// knee is a model's saturation point, searched as the saturation
// assertion, the auto grid and explain all search it.
func knee(m *core.Model) float64 { return m.SaturationPoint(1.0, 1e-4) }

// explainModel breaks one model column of a series down: its knee and
// its per-cluster terms at the highest grid rate its sweep found stable.
func explainModel(column string, m *core.Model, sweep []*core.Result) ModelBreakdown {
	b := ModelBreakdown{Column: column, Knee: knee(m), Lambda: math.NaN()}
	var at *core.Result
	for _, r := range sweep {
		if !r.Saturated && (at == nil || r.Lambda > at.Lambda) {
			at = r
		}
	}
	if at != nil {
		b.Lambda, b.Clusters = at.Lambda, at.PerCluster
	}
	return b
}

// explainSim breaks one simulation run down. m must have collected its
// channel utilizations.
func explainSim(m *sim.Metrics) *SimBreakdown {
	b := &SimBreakdown{
		Intra: m.Intra.Mean(), Inter: m.Inter.Mean(),
		PeakBacklog: m.PeakBacklog,
		GatewayUtil: m.MaxGatewayUtil, MaxChannelUtil: m.MaxChannelUtil,
	}
	for k := range m.IntraStages {
		b.IntraStages[k] = m.IntraStages[k].Mean()
	}
	for k := range m.InterStages {
		b.InterStages[k] = m.InterStages[k].Mean()
	}
	b.Busiest = busiest(m.ChannelUtil, busiestChannels)
	return b
}

// busiest returns the n most utilized channels, most utilized first.
// Equal utilizations keep name order, so the list does not depend on map
// iteration.
func busiest(util map[string]float64, n int) []ChannelUtil {
	all := make([]ChannelUtil, 0, len(util))
	for name, u := range util {
		all = append(all, ChannelUtil{Name: name, Util: u})
	}
	slices.SortFunc(all, func(a, b ChannelUtil) int {
		if c := cmp.Compare(b.Util, a.Util); c != 0 {
			return c
		}
		return strings.Compare(a.Name, b.Name)
	})
	return slices.Clone(all[:min(n, len(all))])
}

// evaluateAssertions checks every assertion against the finished result.
func (p *prepared) evaluateAssertions() []AssertionResult {
	out := make([]AssertionResult, 0, len(p.spec.Assertions))
	for _, a := range p.spec.Assertions {
		out = append(out, p.evaluate(a))
	}
	return out
}

func (p *prepared) evaluate(a AssertionSpec) AssertionResult {
	res := AssertionResult{Spec: a, Pass: true}
	switch a.Type {
	case "saturation":
		for si, m := range p.paper {
			sat := knee(m)
			label := p.result.Series[si].Label
			if a.Min != 0 && sat < a.Min {
				res.Pass = false
				res.Detail = appendDetail(res.Detail, fmt.Sprintf(
					"%s saturates at λ=%.3g, below min %.3g", label, sat, a.Min))
			}
			if a.Max != 0 && sat > a.Max {
				res.Pass = false
				res.Detail = appendDetail(res.Detail, fmt.Sprintf(
					"%s saturates at λ=%.3g, above max %.3g", label, sat, a.Max))
			}
			if res.Pass {
				res.Detail = appendDetail(res.Detail, fmt.Sprintf(
					"%s saturates at λ=%.3g", label, sat))
			}
		}
	case "maxRelError":
		col := a.Column
		if col == "" {
			col = "analysisSF"
		}
		frac := a.LightLoadFraction
		if frac == 0 {
			frac = 0.7
		}
		pcts, n := lightLoad(p.result, frac, col)
		pct := pcts[0]
		switch {
		case n == 0:
			res.Pass = false
			res.Detail = "no mutually stable simulated points to compare"
		case pct > a.Percent:
			res.Pass = false
			res.Detail = fmt.Sprintf("mean light-load |%s−sim|/sim = %.1f%% over %d points, above %.4g%%",
				col, pct, n, a.Percent)
		default:
			res.Detail = fmt.Sprintf("mean light-load |%s−sim|/sim = %.1f%% over %d points (limit %.4g%%)",
				col, pct, n, a.Percent)
		}
	case "monotonic":
		for si, s := range p.result.Series {
			for _, col := range []string{"analysis", "analysisSF"} {
				prev := math.NaN()
				for gi, pt := range s.Points {
					v := column(pt, col)
					if !finite(v) {
						continue
					}
					if !math.IsNaN(prev) && v < prev*(1-1e-9) {
						res.Pass = false
						res.Detail = appendDetail(res.Detail, fmt.Sprintf(
							"%s %s decreases at λ=%.3g (%.4g after %.4g)",
							p.result.Series[si].Label, col, s.Points[gi].Lambda, v, prev))
					}
					prev = v
				}
			}
		}
		if res.Pass {
			res.Detail = "analytical latency nondecreasing in λ"
		}
	default:
		res.Pass = false
		res.Detail = fmt.Sprintf("unknown assertion type %q", a.Type)
	}
	return res
}

func appendDetail(d, more string) string {
	if d == "" {
		return more
	}
	return d + "; " + more
}
