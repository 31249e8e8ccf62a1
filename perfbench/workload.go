package main

import (
	"fmt"
	"math/rand/v2"
	"time"
)

// workload is one traffic mix and the way it is offered.
type workload struct {
	name string
	// replicas > 0 puts a router over that many replicas in front;
	// otherwise the load goes straight to one replica.
	replicas int
	// closed drives the mix with nproc clients back to back; otherwise
	// requests follow a Poisson schedule (open loop).
	closed bool
	// nominal is the open-loop rate, req/s, at which latency is reported.
	// The capacity search then raises the rate by step per probe until a
	// rate misses the limit, and overloads the tier with the probes left,
	// searchSteps probes in all.
	nominal     float64
	step        float64
	searchSteps int
	// closedRate bounds the closed loop's plan: requests generated per
	// second of measuring time.
	closedRate float64
	// limitMs is the p99 latency limit capacity is measured against.
	limitMs float64
	// window is the stretch of the first phase each latency percentile is
	// taken over; the reported figure is the median over windows.
	window time.Duration
	// mix weights the request kinds.
	mix []kindWeight
	// repeat is the chance that a read repeats an earlier spec; respell
	// the chance that such a repeat is re-spelled; pool caps the distinct
	// read specs (0: no cap), shared among the read kinds by weight.
	repeat  float64
	respell float64
	pool    int
	// lightHeavy draws heavy specs from the first, lightest template of
	// each kind only.
	lightHeavy bool
}

type kindWeight struct {
	kind   string
	weight float64
}

var workloads = []*workload{
	// Router canonicalization and forwarding, two loopback hops and the
	// replica's decode and cache hit do the work; core almost none.
	{
		name:     "hot-routed",
		replicas: 3,
		nominal:  1000, step: 1.4, searchSteps: 12,
		limitMs: 50, window: time.Second,
		mix:    []kindWeight{{kEvaluate, 0.7}, {kSweep, 0.3}},
		repeat: 0.985, respell: 0.25, pool: 256,
	},
	// Cheap cached reads and unique heavy streams share one replica's
	// cache and CPUs.
	{
		name:    "mixed-direct",
		nominal: 800, step: 1.4, searchSteps: 12,
		limitMs: 100, window: 2 * time.Second,
		mix: []kindWeight{{kEvaluate, 0.6}, {kSweep, 0.3},
			{kPerfab, 0.03}, {kOptimize, 0.03}, {kFleetsim, 0.04}},
		repeat: 0.9, respell: 0.1, pool: 128, lightHeavy: true,
	},
	// Every spec is unique: core and the engines do the work, the cache
	// only writes and evicts.
	{
		name:       "cold-direct",
		closed:     true,
		closedRate: 600,
		limitMs:    1000,
		window:     2 * time.Second,
		mix: []kindWeight{{kSweep, 0.5}, {kPerfab, 0.15}, {kOptimize, 0.1},
			{kFleetsim, 0.15}, {kCampaign, 0.1}},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Phase names.
const (
	phaseNominal = "nominal"
	phaseClosed  = "closed"
)

// measure splits a run's measuring time: an open loop spends three fifths
// at the nominal rate and the rest on the capacity search, a closed loop
// all of it in one phase.
func (w *workload) measure(run time.Duration) (first Phase, probe time.Duration) {
	if w.closed {
		return Phase{Name: phaseClosed, Dur: run}, 0
	}
	nominal := run * 3 / 5
	return Phase{Name: phaseNominal, Rate: w.nominal, Dur: nominal}, (run - nominal) / time.Duration(w.searchSteps)
}

// searchLen is how many requests the capacity search may use: enough
// for every probe to run at the top of the ramp or one step above it.
func (w *workload) searchLen(probe time.Duration) int {
	if w.closed {
		return 0
	}
	n, rate := 0.0, w.nominal
	for i := 0; i < w.searchSteps; i++ {
		if i <= rampSteps {
			rate *= w.step
		}
		n += rate * probe.Seconds()
	}
	return int(n)
}

// poolOf is the distinct-spec cap of one read kind.
func (w *workload) poolOf(kind string) int {
	reads, mine := 0.0, 0.0
	for _, m := range w.mix {
		if m.kind == kEvaluate || m.kind == kSweep {
			reads += m.weight
			if m.kind == kind {
				mine = m.weight
			}
		}
	}
	return int(float64(w.pool) * mine / reads)
}

func (w *workload) pick(r *rand.Rand) string {
	total := 0.0
	for _, m := range w.mix {
		total += m.weight
	}
	x := r.Float64() * total
	for _, m := range w.mix {
		if x < m.weight {
			return m.kind
		}
		x -= m.weight
	}
	return w.mix[len(w.mix)-1].kind
}
