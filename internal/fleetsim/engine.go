package fleetsim

import (
	"context"

	"github.com/ccnet/ccnet/internal/batch"
	"github.com/ccnet/ccnet/internal/perfab"
)

// Study pairs the performability study (system, message geometry,
// failure classes, seed) with the fleet-simulation block driving it
// through time.
type Study struct {
	Perf  *perfab.Study
	Block *Block
}

// seed returns the trajectory seed (the scenario seed, default 1 —
// perfab's convention).
func (st *Study) seed() uint64 {
	if st.Perf.Seed == 0 {
		return 1
	}
	return st.Perf.Seed
}

// EpochMetrics is one trajectory sample: the time-weighted metrics of
// the states occupying the epoch [T0, T1), plus the state and traffic
// rate at the epoch's end.
type EpochMetrics struct {
	Index int     `json:"index"`
	T0    float64 `json:"t0"`
	T1    float64 `json:"t1"`
	// Lambda and Failed are the traffic rate and per-class failed counts
	// at the epoch's end.
	Lambda float64 `json:"lambda"`
	Failed []int   `json:"failed"`
	// Transitions counts the failure/repair/timeline events inside the
	// epoch.
	Transitions int `json:"transitions"`
	// UpFraction is the fraction of the epoch the system served traffic.
	UpFraction     float64 `json:"upFraction"`
	ServedFraction float64 `json:"servedFraction"`
	// Latency is the mean probe latency over the epoch's servable time;
	// null when the probe was never servable inside the epoch.
	Latency          *float64 `json:"latency"`
	SaturationLambda float64  `json:"saturationLambda"`
	Capacity         float64  `json:"capacity"`
}

// LongRunInfo aggregates the whole trajectory time-weighted — the
// quantities that converge to perfab's steady-state report as the
// horizon grows.
type LongRunInfo struct {
	Availability             float64 `json:"availability"`
	ExpectedLatency          float64 `json:"expectedLatency"`
	LatencyFiniteProbability float64 `json:"latencyFiniteProbability"`
	ExpectedServedFraction   float64 `json:"expectedServedFraction"`
	ExpectedSaturation       float64 `json:"expectedSaturation"`
	ExpectedCapacity         float64 `json:"expectedCapacity"`
	SLOViolation             float64 `json:"sloViolation"`
}

// AssertionResult is one checked trajectory property.
type AssertionResult struct {
	Check    string  `json:"check"`
	Value    float64 `json:"value"`
	From     float64 `json:"from,omitempty"`
	To       float64 `json:"to,omitempty"`
	Observed float64 `json:"observed"`
	Passed   bool    `json:"passed"`
}

// Report is the terminal result of one fleet simulation. Marshaling a
// Report is deterministic — identical study and seed yield
// byte-identical JSON at any worker count.
type Report struct {
	Name        string  `json:"name"`
	Seed        uint64  `json:"seed"`
	Horizon     float64 `json:"horizon"`
	Epoch       float64 `json:"epoch"`
	ProbeLambda float64 `json:"probeLambda"`
	Stochastic  bool    `json:"stochastic"`

	Classes []perfab.ClassInfo `json:"classes"`
	Nominal perfab.NominalInfo `json:"nominal"`

	// Transitions counts the stochastic failure/repair events; Timeline
	// lists the scripted events as applied (with clamping visible);
	// UniqueStates is how many distinct (failed, lambda) states the
	// evaluation phase rebuilt.
	Transitions  int            `json:"transitions"`
	Timeline     []AppliedEvent `json:"timeline,omitempty"`
	UniqueStates int            `json:"uniqueStates"`

	Epochs  []EpochMetrics `json:"epochs"`
	LongRun LongRunInfo    `json:"longRun"`

	Assertions       []AssertionResult `json:"assertions,omitempty"`
	FailedAssertions int               `json:"failedAssertions"`
}

// Engine runs fleet simulations. The zero value is usable.
// States are evaluated on the parallel loop (internal/batch), and the
// report is identical at any GOMAXPROCS.
type Engine struct {
	// EpochReady, when set, receives each epoch's metrics as soon as
	// every state occupying it has been evaluated (sequentially, in
	// ascending index order — the NDJSON stream's emission path).
	EpochReady func(EpochMetrics)
}

// Run simulates the study and returns its report. Cancelling ctx stops
// the evaluation phase with the context's error.
func (e *Engine) Run(ctx context.Context, st *Study) (*Report, error) {
	eval, err := perfab.NewEvaluator(st.Perf)
	if err != nil {
		return nil, err
	}
	labels := st.Perf.Block.ClassLabels()
	if err := st.Block.Validate("fleetsim", labels); err != nil {
		return nil, err
	}
	classes := eval.Classes()
	counts := make([]int, len(classes))
	for i := range classes {
		counts[i] = classes[i].Count
	}

	// Phase 1: generate the trajectory (single-threaded, deterministic).
	tr, err := simulate(st.Block, counts, eval.ClassRates(), labels, eval.ProbeLambda(), st.seed())
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Name:         st.Perf.Name,
		Seed:         st.seed(),
		Horizon:      st.Block.Horizon,
		Epoch:        st.Block.Epoch,
		ProbeLambda:  eval.ProbeLambda(),
		Stochastic:   st.Block.stochastic(),
		Classes:      classes,
		Nominal:      eval.Nominal(),
		Transitions:  tr.transitions,
		Timeline:     tr.applied,
		UniqueStates: len(tr.uniques),
		Epochs:       make([]EpochMetrics, len(tr.epochs)),
	}

	// Phase 2: evaluate each unique state once on the parallel loop.
	// Ordered absorption lets epochs stream as soon as every state they
	// occupy (all ids <= their max) has absorbed — deterministically.
	metrics := make([]perfab.StateMetrics, len(tr.uniques))
	absorbed, emitted := 0, 0
	emit := func() {
		for emitted < len(tr.epochs) && tr.epochs[emitted].maxState < absorbed {
			em := foldEpoch(st.Block, emitted, tr, metrics)
			rep.Epochs[emitted] = em
			if e.EpochReady != nil {
				e.EpochReady(em)
			}
			emitted++
		}
	}
	if err := batch.Run(ctx, len(tr.uniques), 0, func(_, i int) {
		u := &tr.uniques[i]
		metrics[i] = eval.EvalState(u.failed, u.lambda)
	}, func(int) error {
		absorbed++
		emit()
		return nil
	}); err != nil {
		return nil, err
	}

	rep.LongRun = longRun(tr, metrics, st.Block.Horizon)
	rep.Assertions, rep.FailedAssertions = checkAssertions(st.Block, rep.Epochs)
	return rep, nil
}

// foldEpoch derives one epoch's metrics from its occupancy.
func foldEpoch(b *Block, i int, tr *trajectory, metrics []perfab.StateMetrics) EpochMetrics {
	acc := &tr.epochs[i]
	t0 := float64(i) * b.Epoch
	t1 := t0 + b.Epoch
	if t1 > b.Horizon || i == len(tr.epochs)-1 {
		t1 = b.Horizon
	}
	em := EpochMetrics{
		Index:       i,
		T0:          t0,
		T1:          t1,
		Lambda:      tr.uniques[acc.endState].lambda,
		Failed:      tr.uniques[acc.endState].failed,
		Transitions: acc.transitions,
	}
	var total, upW, latW, latSum float64
	for _, oc := range acc.occ {
		m := &metrics[oc.state]
		total += oc.dur
		if m.Up {
			upW += oc.dur
		}
		if m.Latency != nil {
			latW += oc.dur
			latSum += oc.dur * (*m.Latency)
		}
		em.ServedFraction += oc.dur * m.ServedFraction
		em.SaturationLambda += oc.dur * m.SaturationLambda
		em.Capacity += oc.dur * m.Capacity
	}
	if total > 0 {
		em.UpFraction = upW / total
		em.ServedFraction /= total
		em.SaturationLambda /= total
		em.Capacity /= total
	}
	if latW > 0 {
		lat := latSum / latW
		em.Latency = &lat
	}
	return em
}

// longRun folds the exact per-state sojourn times (not the
// epoch-quantized view) into the trajectory-wide averages.
func longRun(tr *trajectory, metrics []perfab.StateMetrics, horizon float64) LongRunInfo {
	var lr LongRunInfo
	var latW, latSum float64
	for u, dur := range tr.sojourn {
		m := &metrics[u]
		if m.Up {
			lr.Availability += dur
		}
		if m.Latency != nil {
			latW += dur
			latSum += dur * (*m.Latency)
		}
		lr.ExpectedServedFraction += dur * m.ServedFraction
		lr.ExpectedSaturation += dur * m.SaturationLambda
		lr.ExpectedCapacity += dur * m.Capacity
		if m.SLOViolation {
			lr.SLOViolation += dur
		}
	}
	if horizon > 0 {
		lr.Availability /= horizon
		lr.ExpectedServedFraction /= horizon
		lr.ExpectedSaturation /= horizon
		lr.ExpectedCapacity /= horizon
		lr.SLOViolation /= horizon
		lr.LatencyFiniteProbability = latW / horizon
	}
	if latW > 0 {
		lr.ExpectedLatency = latSum / latW
	}
	return lr
}
