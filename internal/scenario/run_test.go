package scenario_test

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/ccnet/ccnet/internal/scenario"
)

// campaignSpecs parses a fresh two-scenario simulation campaign on the
// small test system: tiny message counts keep each run in milliseconds
// while still exercising the sim job pool, replications and both flit
// sizes. Fresh parses per call keep runs independent.
func campaignSpecs(t *testing.T) []*scenario.Spec {
	t.Helper()
	mk := func(name string, seed uint64, localFraction float64) *scenario.Spec {
		pattern := ""
		if localFraction > 0 {
			pattern = fmt.Sprintf(`"pattern": "cluster-local", "localFraction": %g,`, localFraction)
		}
		src := fmt.Sprintf(`{
		  "name": %q, "seed": %d,
		  "system": {"preset": "small"},
		  "traffic": {%s
		    "flits": 8, "flitBytes": [64, 128],
		    "lambda": {"values": [2e-4, 4e-4, 6e-4]}
		  },
		  "engines": {"simulation": true, "simEvery": 1,
		              "warmup": 200, "measure": 1500, "replications": 2},
		  "assertions": [{"type": "monotonic"}]
		}`, name, seed, pattern)
		s, err := scenario.Parse(strings.NewReader(src), name+".json")
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return []*scenario.Spec{mk("camp-a", 7, 0), mk("camp-b", 7, 0.5)}
}

// TestCampaignDeterministicAcrossWorkers is the campaign contract: for a
// fixed seed the full result — simulation means, confidence intervals,
// event counts — is bit-identical at any GOMAXPROCS, however many
// goroutines drain the job loop.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	run := func(procs int) []*scenario.Outcome {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return (&scenario.Runner{}).Run(campaignSpecs(t))
	}
	var baseline []*scenario.Outcome
	for _, procs := range []int{1, 3, 8} {
		outcomes := run(procs)
		if len(outcomes) != 2 {
			t.Fatalf("GOMAXPROCS=%d: %d outcomes, want 2", procs, len(outcomes))
		}
		for _, o := range outcomes {
			if o.Err != nil {
				t.Fatalf("GOMAXPROCS=%d: scenario %s: %v", procs, o.Spec.Name, o.Err)
			}
			if !o.Passed() {
				t.Fatalf("GOMAXPROCS=%d: scenario %s failed assertions: %+v",
					procs, o.Spec.Name, o.Assertions)
			}
		}
		if baseline == nil {
			baseline = outcomes
			continue
		}
		for i, o := range outcomes {
			if !reflect.DeepEqual(o.Result, baseline[i].Result) {
				t.Errorf("GOMAXPROCS=%d: scenario %s result differs from GOMAXPROCS=1:\n got %+v\nwant %+v",
					procs, o.Spec.Name, o.Result, baseline[i].Result)
			}
		}
	}
}

// TestCampaignSeedChangesResults guards against the opposite failure: a
// seed that silently does nothing.
func TestCampaignSeedChangesResults(t *testing.T) {
	specs := campaignSpecs(t)
	reseeded := campaignSpecs(t)
	for _, s := range reseeded {
		s.Seed = 99
	}
	a := (&scenario.Runner{}).Run(specs)
	b := (&scenario.Runner{}).Run(reseeded)
	if reflect.DeepEqual(a[0].Result, b[0].Result) {
		t.Error("different seeds produced identical simulation results")
	}
}

// TestCampaignDistinctScenarioStreams checks that two scenarios sharing a
// seed still simulate on distinct streams: the scenario name is part of
// the seed derivation, so two otherwise identical specs must not produce
// identical samples.
func TestCampaignDistinctScenarioStreams(t *testing.T) {
	body := `{
	  "name": %q, "seed": 7,
	  "system": {"preset": "small"},
	  "traffic": {"flits": 8, "flitBytes": [64],
	    "lambda": {"values": [2e-4, 4e-4]}},
	  "engines": {"simulation": true, "simEvery": 1, "warmup": 200, "measure": 1500}
	}`
	var specs []*scenario.Spec
	for _, name := range []string{"twin-a", "twin-b"} {
		s, err := scenario.Parse(strings.NewReader(fmt.Sprintf(body, name)), name+".json")
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	outcomes := (&scenario.Runner{}).Run(specs)
	a := outcomes[0].Result.Series[0].Points[0]
	b := outcomes[1].Result.Series[0].Points[0]
	if a.Simulation == b.Simulation {
		t.Error("scenarios with the same seed reused the same simulation stream")
	}
}

// TestRunnerQuick checks that Quick swaps in the reduced message counts
// (visible through the event counters).
func TestRunnerQuick(t *testing.T) {
	full := (&scenario.Runner{}).Run(campaignSpecs(t))
	quick := (&scenario.Runner{Quick: true}).Run(campaignSpecs(t))
	if full[0].Err != nil || quick[0].Err != nil {
		t.Fatalf("errs: %v, %v", full[0].Err, quick[0].Err)
	}
	f := full[0].Result.Series[0].Points[0].SimEvents
	q := quick[0].Result.Series[0].Points[0].SimEvents
	if q <= f {
		t.Errorf("quick run processed %d events, full %d; quick should process more (2000/15000 vs 200/1500)", q, f)
	}
}

// TestAssertionFailures drives each assertion type to a failure and
// checks the diagnostic names the series and the bound.
func TestAssertionFailures(t *testing.T) {
	src := `{
	  "name": "impossible",
	  "system": {"preset": "small"},
	  "traffic": {"flits": 8, "flitBytes": [64],
	    "lambda": {"values": [2e-4, 4e-4]}},
	  "assertions": [
	    {"type": "saturation", "max": 1e-6},
	    {"type": "saturation", "min": 0.5}
	  ]
	}`
	s, err := scenario.Parse(strings.NewReader(src), "impossible.json")
	if err != nil {
		t.Fatal(err)
	}
	outcomes := (&scenario.Runner{}).Run([]*scenario.Spec{s})
	o := outcomes[0]
	if o.Err != nil {
		t.Fatal(o.Err)
	}
	if o.Passed() {
		t.Fatal("impossible assertions passed")
	}
	if len(o.Assertions) != 2 {
		t.Fatalf("%d assertion results, want 2", len(o.Assertions))
	}
	if o.Assertions[0].Pass || !strings.Contains(o.Assertions[0].Detail, "above max") {
		t.Errorf("max bound: %+v", o.Assertions[0])
	}
	if o.Assertions[1].Pass || !strings.Contains(o.Assertions[1].Detail, "below min") {
		t.Errorf("min bound: %+v", o.Assertions[1])
	}
}

// TestAutoGridMinPastDerivedMax checks the runtime guard Validate cannot
// provide: an explicit min at or beyond the auto-derived max must fail
// the scenario with a field-path error, not panic the campaign.
func TestAutoGridMinPastDerivedMax(t *testing.T) {
	src := `{
	  "name": "minmax",
	  "system": {"preset": "small"},
	  "traffic": {"flits": 8, "flitBytes": [64],
	    "lambda": {"auto": true, "min": 10, "points": 4}}
	}`
	s, err := scenario.Parse(strings.NewReader(src), "minmax.json")
	if err != nil {
		t.Fatal(err)
	}
	o := (&scenario.Runner{}).Run([]*scenario.Spec{s})[0]
	if o.Err == nil || !strings.Contains(o.Err.Error(), "traffic.lambda.min") {
		t.Fatalf("Err = %v, want a traffic.lambda.min field error", o.Err)
	}
}

// TestAnalysisOnlyColumns checks engine gating: with simulation off and
// analysis off, only the analysisSF column is populated.
func TestAnalysisOnlyColumns(t *testing.T) {
	src := `{
	  "name": "sf-only",
	  "system": {"preset": "small"},
	  "engines": {"analysis": false},
	  "traffic": {"flits": 8, "flitBytes": [64],
	    "lambda": {"values": [2e-4]}}
	}`
	s, err := scenario.Parse(strings.NewReader(src), "sf.json")
	if err != nil {
		t.Fatal(err)
	}
	o := (&scenario.Runner{}).Run([]*scenario.Spec{s})[0]
	if o.Err != nil {
		t.Fatal(o.Err)
	}
	p := o.Result.Series[0].Points[0]
	if !isNaN(p.Analysis) || !isNaN(p.Simulation) {
		t.Errorf("disabled columns populated: %+v", p)
	}
	if isNaN(p.AnalysisSF) || p.AnalysisSF <= 0 {
		t.Errorf("analysisSF column missing: %+v", p)
	}
}

func isNaN(v float64) bool { return v != v }
