package perfab

import (
	"context"
	"math"
	"sort"

	"github.com/ccnet/ccnet/internal/batch"
)

// Methods the engine reports.
const (
	MethodExact  = "exact"
	MethodSample = "sample"
)

// topStates bounds the per-state detail listed in the report.
const topStates = 8

// Progress is one incremental update, delivered in a deterministic
// sequence for a given study (no wall-clock content).
type Progress struct {
	Method     string  `json:"method"`
	StateSpace float64 `json:"stateSpace"` // full cross-product size
	States     int     `json:"states"`     // distinct states scheduled
	Evaluated  int     `json:"evaluated"`
	Down       int     `json:"down"` // evaluated states that were down
}

// ClassInfo summarizes one failure class in the report.
type ClassInfo struct {
	Label string `json:"label"`
	Count int    `json:"count"`
	// Availability is one component's steady-state availability
	// MTTF/(MTTF+MTTR).
	Availability float64 `json:"availability"`
	// ExpectedFailed is the steady-state mean failed count.
	ExpectedFailed float64 `json:"expectedFailed"`
}

// NominalInfo is the intact system's reference point.
type NominalInfo struct {
	Nodes            int     `json:"nodes"`
	Clusters         int     `json:"clusters"`
	SaturationLambda float64 `json:"saturationLambda"`
	Capacity         float64 `json:"capacity"`
	Latency          float64 `json:"latency"`
}

// Percentile is one capacity percentile: the largest aggregate capacity
// delivered with probability at least Q.
type Percentile struct {
	Q        float64 `json:"q"`
	Capacity float64 `json:"capacity"`
}

// Report is the terminal result of one performability analysis.
// Marshaling a Report is deterministic — identical study and seed yield
// byte-identical JSON at any worker count.
type Report struct {
	Name        string  `json:"name"`
	Seed        uint64  `json:"seed"`
	Method      string  `json:"method"`
	ProbeLambda float64 `json:"probeLambda"`

	Classes []ClassInfo `json:"classes"`

	StateSpace      float64 `json:"stateSpace"`
	StatesEvaluated int     `json:"statesEvaluated"`
	// CoveredProbability is the evaluated states' total mass (exact
	// enumerations cover ~1; every aggregate below is normalized by it).
	CoveredProbability float64 `json:"coveredProbability"`

	Nominal NominalInfo `json:"nominal"`

	// Availability is the probability the system serves traffic at all.
	Availability float64 `json:"availability"`
	// ExpectedLatency is the mean probe latency conditional on the probe
	// being servable (finite); LatencyFiniteProbability is that
	// condition's mass.
	ExpectedLatency          float64 `json:"expectedLatency"`
	LatencyFiniteProbability float64 `json:"latencyFiniteProbability"`
	// ExpectedSaturation and ExpectedCapacity weight the degraded
	// saturation rate λ* and the aggregate throughput λ*·survivors over
	// all states (down states contribute zero).
	ExpectedSaturation     float64 `json:"expectedSaturation"`
	ExpectedCapacity       float64 `json:"expectedCapacity"`
	ExpectedServedFraction float64 `json:"expectedServedFraction"`
	// SLOViolation is the probability of the violation predicate.
	SLOViolation float64 `json:"sloViolation"`

	Percentiles []Percentile `json:"percentiles"`

	// TopStates lists the highest-probability states with their
	// per-state metrics, weight-descending.
	TopStates []StateMetrics `json:"topStates"`
}

// Engine runs performability analyses. The zero value is usable.
// States are evaluated on the parallel loop (internal/batch), and the
// report is identical at any GOMAXPROCS.
type Engine struct {
	// Progress, when set, receives incremental updates (sequentially,
	// never concurrently), one per progressEvery evaluated states.
	Progress func(Progress)
}

// progressEvery is the progress update cadence in evaluated states.
const progressEvery = 200

// Run analyzes the study and returns its report. Cancelling ctx stops
// the analysis with the context's error.
func (e *Engine) Run(ctx context.Context, st *Study) (*Report, error) {
	// The intact reference and the probe rate resolution live in the
	// shared Evaluator (internal/fleetsim builds the same one).
	eval, err := NewEvaluator(st)
	if err != nil {
		return nil, err
	}
	ev := eval.ev

	// Materialize the availability states.
	size := stateSpaceSize(ev.classes)
	method := MethodExact
	var states []stateRec
	if size <= float64(st.Block.States.maxExact()) {
		states = enumerateStates(ev.classes)
	} else {
		method = MethodSample
		states = sampleStates(ev.classes, st.Block.States.samples(), st.seed())
	}

	rep := &Report{
		Name:        st.Name,
		Seed:        st.seed(),
		Method:      method,
		ProbeLambda: ev.probe,
		StateSpace:  size,
		Nominal:     eval.nominal,
		Classes:     eval.Classes(),
	}

	agg := &aggregator{engine: e, method: method, spaceSize: size, states: len(states)}
	results := make([]StateMetrics, len(states))
	if err := batch.Run(ctx, len(states), 0, func(_, i int) {
		results[i] = ev.evalState(states[i].failed, ev.probe)
		results[i].Weight = states[i].weight
	}, func(i int) error {
		agg.absorb(&results[i])
		return nil
	}); err != nil {
		return nil, err
	}
	agg.finish(rep, st.Block.percentiles(), results)
	return rep, nil
}

// aggregator folds state metrics in state order (absorb runs only on
// the ordered emission path, never concurrently).
type aggregator struct {
	engine    *Engine
	method    string
	spaceSize float64
	states    int

	evaluated int
	down      int

	covered    float64
	upW        float64
	latW       float64
	latSum     float64
	satSum     float64
	capSum     float64
	servedSum  float64
	violateSum float64

	sinceProgress int
}

func (a *aggregator) absorb(m *StateMetrics) {
	a.evaluated++
	a.covered += m.Weight
	if m.Up {
		a.upW += m.Weight
	} else {
		a.down++
	}
	if m.Latency != nil {
		a.latW += m.Weight
		a.latSum += m.Weight * (*m.Latency)
	}
	a.satSum += m.Weight * m.SaturationLambda
	a.capSum += m.Weight * m.Capacity
	a.servedSum += m.Weight * m.ServedFraction
	if m.SLOViolation {
		a.violateSum += m.Weight
	}
	a.sinceProgress++
	if a.sinceProgress >= progressEvery {
		a.sinceProgress = 0
		a.emitProgress()
	}
}

func (a *aggregator) emitProgress() {
	if a.engine.Progress == nil {
		return
	}
	a.engine.Progress(Progress{
		Method:     a.method,
		StateSpace: a.spaceSize,
		States:     a.states,
		Evaluated:  a.evaluated,
		Down:       a.down,
	})
}

// finish normalizes the aggregates and derives the percentile and
// top-state sections.
func (a *aggregator) finish(rep *Report, percentiles []float64, results []StateMetrics) {
	rep.StatesEvaluated = a.evaluated
	rep.CoveredProbability = a.covered
	if a.covered > 0 {
		rep.Availability = a.upW / a.covered
		rep.LatencyFiniteProbability = a.latW / a.covered
		rep.ExpectedSaturation = a.satSum / a.covered
		rep.ExpectedCapacity = a.capSum / a.covered
		rep.ExpectedServedFraction = a.servedSum / a.covered
		rep.SLOViolation = a.violateSum / a.covered
	}
	if a.latW > 0 {
		rep.ExpectedLatency = a.latSum / a.latW
	} else {
		rep.ExpectedLatency = math.Inf(1)
	}
	if math.IsInf(rep.ExpectedLatency, 0) {
		// JSON has no Inf; an unservable probe reports latency 0 with
		// latencyFiniteProbability 0 telling the story.
		rep.ExpectedLatency = 0
	}

	// Capacity percentiles: the largest capacity delivered with
	// probability >= q. States sort by capacity descending (ties by
	// evaluation order, which is deterministic).
	order := make([]int, len(results))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		return results[order[x]].Capacity > results[order[y]].Capacity
	})
	for _, q := range percentiles {
		cum := 0.0
		val := 0.0
		for _, i := range order {
			cum += results[i].Weight
			if cum >= q*a.covered {
				val = results[i].Capacity
				break
			}
		}
		rep.Percentiles = append(rep.Percentiles, Percentile{Q: q, Capacity: val})
	}

	// Top states by probability mass, ties in evaluation order.
	top := make([]int, len(results))
	for i := range top {
		top[i] = i
	}
	sort.SliceStable(top, func(x, y int) bool { return results[top[x]].Weight > results[top[y]].Weight })
	for i := 0; i < len(top) && i < topStates; i++ {
		rep.TopStates = append(rep.TopStates, results[top[i]])
	}
	a.emitProgress()
}
