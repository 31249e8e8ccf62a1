package scenario_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ccnet/ccnet/internal/scenario"
)

// validSpec is a minimal well-formed scenario other tests mutate.
const validSpec = `{
  "name": "t",
  "system": {"preset": "small"},
  "traffic": {
    "flits": 8,
    "flitBytes": [64],
    "lambda": {"min": 1e-4, "max": 1e-3, "points": 4}
  }
}`

func parse(t *testing.T, src string) (*scenario.Spec, error) {
	t.Helper()
	return scenario.Parse(strings.NewReader(src), "test.json")
}

func TestParseValid(t *testing.T) {
	s, err := parse(t, validSpec)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "t" {
		t.Fatalf("name = %q", s.Name)
	}
	sys, err := s.BuildSystem()
	if err != nil {
		t.Fatal(err)
	}
	if sys.TotalNodes() != 24 {
		t.Fatalf("small preset has %d nodes, want 24", sys.TotalNodes())
	}
}

// TestValidationErrors feeds malformed specs through the loader and
// requires each rejection to name the offending field path.
func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string // substrings the error must contain
	}{
		{
			"missing name",
			`{"system": {"preset": "small"},
			  "traffic": {"flits": 8, "flitBytes": [64], "lambda": {"max": 1e-3, "points": 4}}}`,
			[]string{"name: required"},
		},
		{
			"negative flits",
			`{"name": "t", "system": {"preset": "small"},
			  "traffic": {"flits": -3, "flitBytes": [64], "lambda": {"max": 1e-3, "points": 4}}}`,
			[]string{"traffic.flits", "must be positive, got -3"},
		},
		{
			"negative rate",
			`{"name": "t", "system": {"preset": "small"},
			  "traffic": {"flits": 8, "flitBytes": [64], "lambda": {"max": -1e-3, "points": 4}}}`,
			[]string{"traffic.lambda.max", "must be a positive rate"},
		},
		{
			"unknown pattern",
			`{"name": "t", "system": {"preset": "small"},
			  "traffic": {"pattern": "ring", "flits": 8, "flitBytes": [64], "lambda": {"max": 1e-3, "points": 4}}}`,
			[]string{"traffic.pattern", `unknown pattern "ring"`, "uniform, hotspot, cluster-local"},
		},
		{
			"unknown preset",
			`{"name": "t", "system": {"preset": "N=9000"},
			  "traffic": {"flits": 8, "flitBytes": [64], "lambda": {"max": 1e-3, "points": 4}}}`,
			[]string{"system.preset", `unknown preset "N=9000"`, "N=1120"},
		},
		{
			"bad tree levels",
			`{"name": "t",
			  "system": {"ports": 4, "clusters": [{"count": 2, "treeLevels": 0}, {"count": 2, "treeLevels": 2}]},
			  "traffic": {"flits": 8, "flitBytes": [64], "lambda": {"max": 1e-3, "points": 4}}}`,
			[]string{"system.clusters[0].treeLevels", "must be in [1,32]"},
		},
		{
			"bad network class name",
			`{"name": "t",
			  "system": {"ports": 4, "clusters": [{"count": 4, "treeLevels": 1, "icn1": "net9"}]},
			  "traffic": {"flits": 8, "flitBytes": [64], "lambda": {"max": 1e-3, "points": 4}}}`,
			[]string{"system.clusters[0].icn1", `unknown network class "net9"`},
		},
		{
			"negative custom bandwidth",
			`{"name": "t",
			  "system": {"ports": 4, "clusters": [{"count": 4, "treeLevels": 1,
			    "icn1": {"bandwidth": -5, "networkLatency": 0.01, "switchLatency": 0.02}}]},
			  "traffic": {"flits": 8, "flitBytes": [64], "lambda": {"max": 1e-3, "points": 4}}}`,
			[]string{"system.clusters[0].icn1", "bandwidth must be positive"},
		},
		{
			"descending grid values",
			`{"name": "t", "system": {"preset": "small"},
			  "traffic": {"flits": 8, "flitBytes": [64], "lambda": {"values": [2e-3, 1e-3]}}}`,
			[]string{"traffic.lambda.values[1]", "strictly ascending"},
		},
		{
			"hotspot without fraction",
			`{"name": "t", "system": {"preset": "small"},
			  "traffic": {"pattern": "hotspot", "flits": 8, "flitBytes": [64], "lambda": {"max": 1e-3, "points": 4}}}`,
			[]string{"traffic.hotFraction", "must be in (0,1]"},
		},
		{
			"unknown assertion type",
			`{"name": "t", "system": {"preset": "small"},
			  "traffic": {"flits": 8, "flitBytes": [64], "lambda": {"max": 1e-3, "points": 4}},
			  "assertions": [{"type": "speedy"}]}`,
			[]string{"assertions[0].type", `unknown assertion type "speedy"`},
		},
		{
			"maxRelError without simulation",
			`{"name": "t", "system": {"preset": "small"},
			  "traffic": {"flits": 8, "flitBytes": [64], "lambda": {"max": 1e-3, "points": 4}},
			  "assertions": [{"type": "maxRelError", "percent": 10}]}`,
			[]string{"assertions[0]", "requires engines.simulation"},
		},
		{
			"all engines off",
			`{"name": "t", "system": {"preset": "small"},
			  "engines": {"analysis": false, "analysisSF": false},
			  "traffic": {"flits": 8, "flitBytes": [64], "lambda": {"max": 1e-3, "points": 4}}}`,
			[]string{"engines", "every engine disabled"},
		},
		{
			"unknown JSON field",
			`{"name": "t", "system": {"preset": "small"},
			  "traffic": {"flits": 8, "flitsBytes": [64], "lambda": {"max": 1e-3, "points": 4}}}`,
			[]string{`unknown field "flitsBytes"`},
		},
		{
			"wrong field type",
			`{"name": "t", "system": {"preset": "small"},
			  "traffic": {"flits": "many", "flitBytes": [64], "lambda": {"max": 1e-3, "points": 4}}}`,
			[]string{"traffic.flits", "expected int"},
		},
		{
			"negative auto-grid min",
			`{"name": "t", "system": {"preset": "small"},
			  "traffic": {"flits": 8, "flitBytes": [64], "lambda": {"auto": true, "min": -1, "points": 4}}}`,
			[]string{"traffic.lambda.min", "must be >= 0"},
		},
		{
			"path-escaping name",
			`{"name": "../evil", "system": {"preset": "small"},
			  "traffic": {"flits": 8, "flitBytes": [64], "lambda": {"max": 1e-3, "points": 4}}}`,
			[]string{"name", "may only contain"},
		},
		{
			"preset plus explicit fields",
			`{"name": "t", "system": {"preset": "small", "ports": 4},
			  "traffic": {"flits": 8, "flitBytes": [64], "lambda": {"max": 1e-3, "points": 4}}}`,
			[]string{"system.preset", "excludes explicit"},
		},
		{
			// Regression: an unknown kind used to surface as a bare decode
			// error; it must name the field and the valid kinds.
			"unknown kind",
			`{"kind": "flootsim", "name": "t", "system": {"preset": "small"},
			  "traffic": {"flits": 8, "flitBytes": [64], "lambda": {"max": 1e-3, "points": 4}}}`,
			[]string{"kind", `unknown kind "flootsim"`, "scenario, fleetsim, optimize"},
		},
		{
			"optimize kind in the scenario loader",
			`{"kind": "optimize", "name": "t", "system": {"preset": "small"},
			  "traffic": {"flits": 8, "flitBytes": [64], "lambda": {"max": 1e-3, "points": 4}}}`,
			[]string{"kind", "optimizer search spec", "ccscen optimize"},
		},
		{
			"fleetsim kind without its sections",
			`{"kind": "fleetsim", "name": "t", "system": {"preset": "small"},
			  "traffic": {"flits": 8, "flitBytes": [64], "lambda": {"max": 1e-3, "points": 4}}}`,
			[]string{`fleetsim: section required for kind "fleetsim"`,
				`performability: section required for kind "fleetsim"`},
		},
		{
			"fleetsim block without the kind",
			`{"name": "t", "system": {"preset": "small"},
			  "traffic": {"flits": 8, "flitBytes": [64], "lambda": {"max": 1e-3, "points": 4}},
			  "performability": {"nodes": [{"group": 0, "mttf": 1500, "mttr": 50}]},
			  "fleetsim": {"horizon": 100, "epoch": 10}}`,
			[]string{`fleetsim: section requires kind "fleetsim"`},
		},
		{
			"fleetsim timeline against unknown class",
			`{"kind": "fleetsim", "name": "t", "system": {"preset": "small"},
			  "traffic": {"flits": 8, "flitBytes": [64], "lambda": {"max": 1e-3, "points": 4}},
			  "performability": {"nodes": [{"group": 1, "mttf": 1500, "mttr": 50}]},
			  "fleetsim": {"horizon": 100, "epoch": 10,
			    "timeline": [{"at": 5, "action": "inject_failure", "class": "nodes[g7]"}]}}`,
			[]string{"fleetsim.timeline[0].class", `unknown class "nodes[g7]"`, "nodes[g1]"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := parse(t, c.src)
			if err == nil {
				t.Fatal("spec accepted, want rejection")
			}
			for _, want := range c.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q\n  missing substring %q", err, want)
				}
			}
		})
	}
}

// TestBuildSystemStructuralError checks that constraints only the cluster
// layer knows (C = 2(m/2)^n) surface with the system path attached.
func TestBuildSystemStructuralError(t *testing.T) {
	s, err := parse(t, `{"name": "t",
	  "system": {"ports": 4, "clusters": [{"count": 3, "treeLevels": 1}]},
	  "traffic": {"flits": 8, "flitBytes": [64], "lambda": {"max": 1e-3, "points": 4}}}`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.BuildSystem(); err == nil ||
		!strings.Contains(err.Error(), "system") || !strings.Contains(err.Error(), "C=3") {
		t.Fatalf("BuildSystem error = %v, want a system-path error about C=3", err)
	}
}

func TestLoadAllRejectsDuplicateNames(t *testing.T) {
	dir := t.TempDir()
	for _, f := range []string{"a.json", "b.json"} {
		if err := os.WriteFile(filepath.Join(dir, f), []byte(validSpec), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := scenario.LoadAll([]string{dir}); err == nil ||
		!strings.Contains(err.Error(), `duplicate name "t"`) {
		t.Fatalf("LoadAll error = %v, want duplicate-name rejection", err)
	}
}

// TestFleetStudy: a valid kind "fleetsim" spec assembles a runnable
// fleet study wired to the performability classes.
func TestFleetStudy(t *testing.T) {
	s, err := parse(t, `{"kind": "fleetsim", "name": "t", "system": {"preset": "small"},
	  "traffic": {"flits": 8, "flitBytes": [64], "lambda": {"max": 1e-3, "points": 4}},
	  "performability": {"nodes": [{"group": 1, "mttf": 1500, "mttr": 50, "repairers": 2}]},
	  "fleetsim": {"horizon": 200, "epoch": 20,
	    "timeline": [{"at": 10, "action": "inject_failure", "class": "nodes[g1]", "count": 4}],
	    "assertions": [{"check": "min_availability", "value": 0.5}]}}`)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.FleetStudy()
	if err != nil {
		t.Fatal(err)
	}
	if st.Block.Horizon != 200 || st.Perf.Name != "t" || len(st.Perf.GroupOf) != 4 {
		t.Fatalf("study misassembled: %+v", st)
	}
	// A plain scenario has no fleet study.
	plain, err := parse(t, validSpec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.FleetStudy(); err == nil ||
		!strings.Contains(err.Error(), "fleetsim: section required") {
		t.Fatalf("FleetStudy on a plain scenario = %v, want section-required error", err)
	}
}

// TestExampleScenariosValid keeps the shipped examples loadable and
// buildable — the files double as documentation, so they must not rot.
func TestExampleScenariosValid(t *testing.T) {
	specs, err := scenario.LoadAll([]string{filepath.Join("..", "..", "examples", "scenarios")})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) < 4 {
		t.Fatalf("%d example scenarios, want at least 4", len(specs))
	}
	for _, s := range specs {
		if _, err := s.BuildSystem(); err != nil {
			t.Errorf("example %s: %v", s.Name, err)
		}
	}
}
