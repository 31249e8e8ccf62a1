package optimize

import (
	"context"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

// perfSearchSpec is a small grid whose candidates are weighted by node
// and ICN2 failures; the states budget is kept tiny on purpose (the
// analysis runs once per candidate).
const perfSearchSpec = `{
	"name": "perf-opt",
	"space": {
		"ports": [4],
		"groups": [{"counts": [4, 8], "treeLevels": [1, 2], "icn1": ["net1"], "ecn1": ["net2"]}]
	},
	"message": {"flits": 16, "flitBytes": 128},
	"constraints": {"cost": {"switchBase": 10, "linkBase": 1}},
	"performability": {
		"nodes": [{"group": 0, "mttf": 2000, "mttr": 100}],
		"icn2Switches": [{"level": 0, "mttf": 20000, "mttr": 200}],
		"states": {"maxExact": 256, "samples": 128}
	},
	"objective": "minExpectedLatency"
}`

func TestPerfWeightedSearch(t *testing.T) {
	spec, err := Parse(strings.NewReader(perfSearchSpec), "test")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := (&Engine{}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Feasible == 0 || len(rep.Frontier) == 0 || rep.Best == nil {
		t.Fatalf("no feasible candidates: %+v", rep)
	}
	for i := range rep.Frontier {
		p := &rep.Frontier[i]
		if p.Availability <= 0 || p.Availability > 1 {
			t.Errorf("point %d availability %v outside (0,1]", p.ID, p.Availability)
		}
		if p.NominalLatency <= 0 {
			t.Errorf("point %d nominal latency %v", p.ID, p.NominalLatency)
		}
		// The frontier metric is the expected latency; with only node
		// and full-ICN2 failures the up-states are unloaded relative to
		// nominal, but the value must be positive and finite either way.
		if !(p.Latency > 0) {
			t.Errorf("point %d expected latency %v", p.ID, p.Latency)
		}
	}
	// The objective is -expected latency: the best point has the
	// smallest frontier latency metric.
	for i := range rep.Frontier {
		if rep.Frontier[i].Latency < rep.Best.Latency-1e-12 {
			t.Errorf("point %d beats the reported best (%v < %v)",
				rep.Frontier[i].ID, rep.Frontier[i].Latency, rep.Best.Latency)
		}
	}
}

// TestPerfWeightedSearchDeterministic: identical spec and seed yield a
// byte-identical report at any GOMAXPROCS (the per-candidate sampler
// seeds derive from the candidate id, not the schedule).
func TestPerfWeightedSearchDeterministic(t *testing.T) {
	run := func(procs int) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		spec, err := Parse(strings.NewReader(perfSearchSpec), "test")
		if err != nil {
			t.Fatal(err)
		}
		rep, err := (&Engine{}).Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	base := run(1)
	for _, procs := range []int{2, 8} {
		if got := run(procs); string(got) != string(base) {
			t.Fatalf("report differs at GOMAXPROCS=%d", procs)
		}
	}
}

// TestMinAvailabilityConstraint: an unreachable availability floor
// rejects every candidate with the availability reason.
func TestMinAvailabilityConstraint(t *testing.T) {
	// counts pinned to 4 clusters: every candidate's ICN2 tree is the
	// single switch whose failure downs the system.
	raw := `{
		"name": "perf-avail",
		"space": {
			"ports": [4],
			"groups": [{"counts": [4], "treeLevels": [1, 2], "icn1": ["net1"], "ecn1": ["net2"]}]
		},
		"message": {"flits": 16, "flitBytes": 128},
		"constraints": {"minAvailability": 0.9999},
		"performability": {
			"nodes": [{"group": 0, "mttf": 2000, "mttr": 100}],
			"icn2Switches": [{"level": 0, "mttf": 20000, "mttr": 200}],
			"states": {"maxExact": 256, "samples": 128}
		}
	}`
	spec, err := Parse(strings.NewReader(raw), "test")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := (&Engine{}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// The ICN2 tree is one switch with availability 20000/20200 ≈ 0.990:
	// no candidate can reach 0.9999.
	if rep.Feasible != 0 || rep.Infeasible.Availability == 0 {
		t.Fatalf("feasible %d, availability-infeasible %d; want 0 and > 0",
			rep.Feasible, rep.Infeasible.Availability)
	}
}

// TestPerfSpecValidation covers the new rejection paths.
func TestPerfSpecValidation(t *testing.T) {
	cases := map[string]string{
		"objective without block": `{
			"name": "x", "space": {"ports": [4], "groups": [{"treeLevels": [1]}]},
			"message": {"flits": 16, "flitBytes": 128}, "objective": "minExpectedLatency"
		}`,
		"minAvailability without block": `{
			"name": "x", "space": {"ports": [4], "groups": [{"treeLevels": [1]}]},
			"message": {"flits": 16, "flitBytes": 128},
			"constraints": {"minAvailability": 0.5}
		}`,
		"bad group reference": `{
			"name": "x", "space": {"ports": [4], "groups": [{"treeLevels": [1]}]},
			"message": {"flits": 16, "flitBytes": 128},
			"performability": {"nodes": [{"group": 3, "mttf": 100, "mttr": 10}]}
		}`,
		"level above every height": `{
			"name": "x", "space": {"ports": [4], "groups": [{"treeLevels": [1, 2]}]},
			"message": {"flits": 16, "flitBytes": 128},
			"performability": {"switches": [{"group": 0, "network": "icn1", "level": 2, "mttf": 100, "mttr": 10}]}
		}`,
	}
	for name, raw := range cases {
		if _, err := Parse(strings.NewReader(raw), "test"); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
