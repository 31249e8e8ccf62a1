// Package fleetsim is the time-domain fleet simulator: an event-driven
// trajectory over the performability engine's failure/repair machinery.
// Where perfab answers steady-state questions ("what does the cluster
// deliver on average under partial failure?"), fleetsim answers
// transient ones ("an AZ loses power at t=5m with two repair crews —
// what does latency look like over the next six hours?").
//
// A fleetsim block rides on a scenario's performability section: the
// failure classes there define the component populations, and the block
// adds a horizon, an epoch width, a timeline of scripted events
// (inject_failure / repair / set_lambda at time t) and declarative
// assertions over the resulting trajectory. Between scripted events the
// per-class birth–death chains run as a continuous-time Markov chain
// (Gillespie next-event simulation with finite repair crews); each
// distinct (failed vector, traffic rate) the trajectory visits is
// rebuilt and evaluated once through the same core.NewDegraded +
// topology.SurvivorDistanceDistribution path perfab uses, spread over
// the internal/batch parallel loop with ordered absorption — so
// identical spec+seed produce byte-identical trajectories at any worker
// count.
//
// The scenario format carries the block ("fleetsim" kind), cmd/ccscen
// exposes the engine as `ccscen fleet`, the HTTP service as POST
// /v1/fleetsim (a chunked NDJSON epoch stream), and the batch endpoint
// as item kind "fleetsim". Long-run trajectory averages converge to
// perfab's steady-state report as the horizon grows (the convergence
// test pins this within 2% on an exact state space).
package fleetsim

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Timeline actions.
const (
	ActInjectFailure = "inject_failure"
	ActRepair        = "repair"
	ActSetLambda     = "set_lambda"
)

// Assertion checks.
const (
	CheckP99LatencyBelow = "p99_latency_below"
	CheckRecoversWithin  = "recovers_within"
	CheckMinAvailability = "min_availability"
)

// maxEpochs bounds horizon/epoch so a spec cannot demand an unbounded
// trajectory (20000 epochs ≈ a few MB of NDJSON).
const maxEpochs = 20000

// EventSpec is one scripted timeline event. inject_failure and repair
// move Count components of the named class (clamped to the class
// population); set_lambda switches the traffic rate from time At on.
type EventSpec struct {
	// At is the event time in the model's time unit, in [0, horizon].
	At float64 `json:"at"`
	// Action is "inject_failure", "repair" or "set_lambda".
	Action string `json:"action"`
	// Class names the failure class for inject_failure/repair, using the
	// performability block's labels ("nodes[g0]", "switches[g1/icn1/L2]",
	// "icn2Switches[L1]", ...).
	Class string `json:"class,omitempty"`
	// Count is how many components the event moves (default 1).
	Count int `json:"count,omitempty"`
	// Lambda is the new per-node traffic rate for set_lambda.
	Lambda float64 `json:"lambda,omitempty"`
}

// AssertionSpec is one machine-checked property of the trajectory.
type AssertionSpec struct {
	// Check is "p99_latency_below", "recovers_within" or
	// "min_availability".
	Check string `json:"check"`
	// Value is the threshold: a latency bound for p99_latency_below, a
	// deadline time for recovers_within, an availability fraction in
	// (0,1] for min_availability.
	Value float64 `json:"value"`
	// From/To bound the epoch window for p99_latency_below and
	// min_availability (defaults: 0 and the horizon).
	From float64 `json:"from,omitempty"`
	To   float64 `json:"to,omitempty"`
}

// Block is the declarative fleet-simulation section. It appears as
// "fleetsim" in scenario files of kind "fleetsim" and requires a
// performability block for the failure classes.
type Block struct {
	// Horizon is the simulated time span (required, positive).
	Horizon float64 `json:"horizon"`
	// Epoch is the trajectory sample width; the report carries one
	// metrics row per epoch. horizon/epoch may not exceed 20000.
	Epoch float64 `json:"epoch"`
	// Stochastic enables the per-class failure/repair arrival chains
	// (default true; false runs the scripted timeline only, which makes
	// the trajectory independent of the seed).
	Stochastic *bool `json:"stochastic,omitempty"`
	// Timeline lists the scripted events, applied in time order (ties in
	// declaration order).
	Timeline []EventSpec `json:"timeline,omitempty"`
	// Assertions are checked against the finished trajectory; failures
	// are reported (and fail `ccscen fleet` with exit status 1).
	Assertions []AssertionSpec `json:"assertions,omitempty"`
}

// stochastic reports the effective arrivals switch.
func (b *Block) stochastic() bool { return b.Stochastic == nil || *b.Stochastic }

// epochs returns the trajectory's epoch count: ceil(horizon/epoch).
func (b *Block) epochs() int {
	n := int(math.Ceil(b.Horizon / b.Epoch))
	if n < 1 {
		n = 1
	}
	return n
}

// fieldErr builds a field-path error in the scenario loader's language.
func fieldErr(path, format string, args ...any) error {
	return fmt.Errorf("%s: %s", path, fmt.Sprintf(format, args...))
}

// Validate checks the block against the performability block's class
// labels (perfab.Block.ClassLabels), returning every problem as
// field-path errors rooted at path (the scenario loader passes
// "fleetsim").
func (b *Block) Validate(path string, classLabels []string) error {
	var errs []error
	add := func(p, format string, args ...any) {
		errs = append(errs, fieldErr(p, format, args...))
	}
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

	if b.Horizon <= 0 || !finite(b.Horizon) {
		add(path+".horizon", "must be a positive finite time, got %v", b.Horizon)
	}
	if b.Epoch <= 0 || !finite(b.Epoch) {
		add(path+".epoch", "must be a positive finite time, got %v", b.Epoch)
	}
	if b.Horizon > 0 && b.Epoch > 0 && finite(b.Horizon) && finite(b.Epoch) {
		if n := b.Horizon / b.Epoch; n > maxEpochs {
			add(path+".epoch", "horizon/epoch = %.0f epochs exceeds the %d-epoch cap", n, maxEpochs)
		}
	}

	classOK := func(p, label string) {
		for _, l := range classLabels {
			if l == label {
				return
			}
		}
		add(p, "unknown class %q (valid: %s)", label, strings.Join(classLabels, ", "))
	}
	for i := range b.Timeline {
		ev := &b.Timeline[i]
		p := fmt.Sprintf("%s.timeline[%d]", path, i)
		if ev.At < 0 || !finite(ev.At) || (finite(b.Horizon) && ev.At > b.Horizon) {
			add(p+".at", "must be a time in [0, horizon], got %v", ev.At)
		}
		switch ev.Action {
		case ActInjectFailure, ActRepair:
			if ev.Class == "" {
				add(p+".class", "required for %s", ev.Action)
			} else {
				classOK(p+".class", ev.Class)
			}
			if ev.Count < 0 {
				add(p+".count", "must be >= 1 (default 1), got %d", ev.Count)
			}
			if ev.Lambda != 0 {
				add(p+".lambda", "only meaningful for set_lambda")
			}
		case ActSetLambda:
			if ev.Lambda <= 0 || !finite(ev.Lambda) {
				add(p+".lambda", "must be a positive finite rate, got %v", ev.Lambda)
			}
			if ev.Class != "" || ev.Count != 0 {
				add(p, "set_lambda excludes class/count")
			}
		case "":
			add(p+".action", "required (valid: %s, %s, %s)", ActInjectFailure, ActRepair, ActSetLambda)
		default:
			add(p+".action", "unknown action %q (valid: %s, %s, %s)",
				ev.Action, ActInjectFailure, ActRepair, ActSetLambda)
		}
	}

	for i := range b.Assertions {
		a := &b.Assertions[i]
		p := fmt.Sprintf("%s.assertions[%d]", path, i)
		window := func() {
			if a.From < 0 || !finite(a.From) {
				add(p+".from", "must be a time in [0, horizon), got %v", a.From)
			}
			if a.To != 0 && (!finite(a.To) || a.To <= a.From || (finite(b.Horizon) && a.To > b.Horizon)) {
				add(p+".to", "must be a time in (from, horizon], got %v", a.To)
			}
		}
		switch a.Check {
		case CheckP99LatencyBelow:
			if a.Value <= 0 || !finite(a.Value) {
				add(p+".value", "must be a positive latency bound, got %v", a.Value)
			}
			window()
		case CheckRecoversWithin:
			if a.Value <= 0 || !finite(a.Value) || (finite(b.Horizon) && b.Horizon > 0 && a.Value > b.Horizon) {
				add(p+".value", "must be a deadline in (0, horizon], got %v", a.Value)
			}
			if a.From != 0 || a.To != 0 {
				add(p, "recovers_within excludes from/to (the deadline is value)")
			}
		case CheckMinAvailability:
			if a.Value <= 0 || a.Value > 1 || math.IsNaN(a.Value) {
				add(p+".value", "must be an availability fraction in (0,1], got %v", a.Value)
			}
			window()
		case "":
			add(p+".check", "required (valid: %s, %s, %s)",
				CheckP99LatencyBelow, CheckRecoversWithin, CheckMinAvailability)
		default:
			add(p+".check", "unknown check %q (valid: %s, %s, %s)",
				a.Check, CheckP99LatencyBelow, CheckRecoversWithin, CheckMinAvailability)
		}
	}

	if len(errs) == 0 {
		return nil
	}
	sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
	return errors.Join(errs...)
}
