package scenario

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// explainSpecs parses a fresh two-scenario campaign on the small test
// system: simulated at every point with two replications, both model
// columns on, a saturation assertion, and a grid that runs past the
// knee so some model points saturate.
func explainSpecs(t *testing.T) []*Spec {
	t.Helper()
	var specs []*Spec
	for _, name := range []string{"explain-a", "explain-b"} {
		pattern := ""
		if name == "explain-b" {
			pattern = `"pattern": "cluster-local", "localFraction": 0.5,`
		}
		src := fmt.Sprintf(`{
		  "name": %q, "seed": 5,
		  "system": {"preset": "small"},
		  "traffic": {%s
		    "flits": 8, "flitBytes": [64, 128],
		    "lambda": {"values": [2e-4, 6e-4, 0.05, 0.3]}
		  },
		  "engines": {"simulation": true, "simEvery": 1, "warmup": 100,
		              "measure": 800, "replications": 2, "maxBacklog": 500},
		  "assertions": [{"type": "saturation", "min": 1e-6}]
		}`, name, pattern)
		s, err := Parse(strings.NewReader(src), name+".json")
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	return specs
}

func runExplained(t *testing.T, explain bool) []*Outcome {
	t.Helper()
	outcomes := (&Runner{Explain: explain}).Run(explainSpecs(t))
	for _, o := range outcomes {
		if o.Err != nil {
			t.Fatalf("scenario %s: %v", o.Spec.Name, o.Err)
		}
	}
	return outcomes
}

// TestExplainLeavesResultAlone: explaining adds breakdowns and changes
// no bit of any point and no byte of the CSV; without it the runner
// records none.
func TestExplainLeavesResultAlone(t *testing.T) {
	plain, explained := runExplained(t, false), runExplained(t, true)
	bits := func(p Point) [6]uint64 {
		return [6]uint64{math.Float64bits(p.Lambda), math.Float64bits(p.Analysis),
			math.Float64bits(p.AnalysisSF), math.Float64bits(p.Simulation),
			math.Float64bits(p.SimCI), p.SimEvents}
	}
	for i, o := range plain {
		e := explained[i]
		for si, s := range o.Result.Series {
			if s.Models != nil {
				t.Errorf("%s %s: unexplained run recorded model breakdowns", o.Spec.Name, s.Label)
			}
			es := e.Result.Series[si]
			if len(es.Points) != len(s.Points) {
				t.Fatalf("%s %s: %d points explained, %d plain", o.Spec.Name, s.Label, len(es.Points), len(s.Points))
			}
			for pi, p := range s.Points {
				if p.Sim != nil {
					t.Errorf("%s %s λ=%g: unexplained run recorded a sim breakdown", o.Spec.Name, s.Label, p.Lambda)
				}
				if bits(p) != bits(es.Points[pi]) {
					t.Errorf("%s %s point %d: explained %+v, plain %+v", o.Spec.Name, s.Label, pi, es.Points[pi], p)
				}
			}
		}
		var a, b strings.Builder
		if err := WriteCSV(&a, o.Result); err != nil {
			t.Fatal(err)
		}
		if err := WriteCSV(&b, e.Result); err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Errorf("%s: CSV differs with explain:\n%s\n---\n%s", o.Spec.Name, b.String(), a.String())
		}
		if fmt.Sprint(o.Assertions) != fmt.Sprint(e.Assertions) {
			t.Errorf("%s: assertions differ with explain: %v vs %v", o.Spec.Name, e.Assertions, o.Assertions)
		}
	}
}

// TestExplainSimStages: every simulated point carries its first
// replication's breakdown, whose stage means sum to its branch means,
// and whose busiest channels are listed by utilization, then name.
func TestExplainSimStages(t *testing.T) {
	sum := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s
	}
	saturated := 0
	for _, o := range runExplained(t, true) {
		for _, s := range o.Result.Series {
			for _, p := range s.Points {
				b := p.Sim
				if b == nil {
					t.Fatalf("%s %s λ=%g: simulated point without a breakdown", o.Spec.Name, s.Label, p.Lambda)
				}
				if math.IsInf(p.Simulation, 1) {
					saturated++
				}
				for _, br := range []struct {
					name   string
					mean   float64
					stages []float64
				}{{"intra", b.Intra, b.IntraStages[:]}, {"inter", b.Inter, b.InterStages[:]}} {
					if finite(p.Simulation) && br.mean <= 0 {
						t.Errorf("%s %s λ=%g: %s mean %v", o.Spec.Name, s.Label, p.Lambda, br.name, br.mean)
					}
					if got := sum(br.stages); math.Abs(got-br.mean) > 1e-9*br.mean {
						t.Errorf("%s %s λ=%g: %s stages %v sum to %v, branch mean %v",
							o.Spec.Name, s.Label, p.Lambda, br.name, br.stages, got, br.mean)
					}
				}
				if b.PeakBacklog < 1 || b.GatewayUtil <= 0 || b.GatewayUtil > b.MaxChannelUtil {
					t.Errorf("%s %s λ=%g: backlog %d, gateway util %v, max channel util %v",
						o.Spec.Name, s.Label, p.Lambda, b.PeakBacklog, b.GatewayUtil, b.MaxChannelUtil)
				}
				if len(b.Busiest) != busiestChannels || b.Busiest[0].Util != b.MaxChannelUtil {
					t.Errorf("%s %s λ=%g: busiest %v, max channel util %v",
						o.Spec.Name, s.Label, p.Lambda, b.Busiest, b.MaxChannelUtil)
				}
				checkBusiestOrder(t, b.Busiest)
			}
		}
	}
	// The grid's top rate overdrives the simulator, so a saturated run's
	// breakdown is exercised as well.
	if saturated == 0 {
		t.Fatal("no simulated point saturated; raise the grid's top rate")
	}
}

func checkBusiestOrder(t *testing.T, list []ChannelUtil) {
	t.Helper()
	for k := 1; k < len(list); k++ {
		a, b := list[k-1], list[k]
		if a.Util < b.Util || (a.Util == b.Util && a.Name >= b.Name) {
			t.Errorf("busiest channels out of order at %d: %v", k, list)
		}
	}
}

// TestBusiestBreaksTiesByName: equal utilizations come out in name
// order, whatever the map's iteration order, and the list stops at n.
func TestBusiestBreaksTiesByName(t *testing.T) {
	util := map[string]float64{
		"ICN2/inject:3->0": 0.5, "CD(1)/conc-root0": 0.5, "ECN1(0)/eject:1->1": 0.25,
		"CD(0)/disp-root0": 0.75, "ICN1(2)/s2s:0->4": 0.5, "ICN1(0)/inject:0->0": 0,
	}
	want := []ChannelUtil{{"CD(0)/disp-root0", 0.75}, {"CD(1)/conc-root0", 0.5},
		{"ICN1(2)/s2s:0->4", 0.5}, {"ICN2/inject:3->0", 0.5}}
	for range 20 {
		if got := busiest(util, 4); !slices.Equal(got, want) {
			t.Fatalf("busiest = %v, want %v", got, want)
		}
	}
	if got := busiest(util, 10); len(got) != len(util) {
		t.Fatalf("busiest(util, 10) listed %d of %d channels", len(got), len(util))
	}
	checkBusiestOrder(t, busiest(util, len(util)))
}

// TestExplainModelKnees: each series carries one breakdown per model
// column that is on; its knee is the saturation assertion's reading, and
// its per-cluster terms are those of the column's highest stable grid
// rate, weighting to the column's mean there.
func TestExplainModelKnees(t *testing.T) {
	for _, o := range runExplained(t, true) {
		sys, err := o.Spec.BuildSystem()
		if err != nil {
			t.Fatal(err)
		}
		paper, err := o.Spec.BuildModels(sys, false)
		if err != nil {
			t.Fatal(err)
		}
		sf, err := o.Spec.BuildModels(sys, true)
		if err != nil {
			t.Fatal(err)
		}
		detail := o.Assertions[0].Detail
		for si, s := range o.Result.Series {
			if len(s.Models) != 2 || s.Models[0].Column != "analysis" || s.Models[1].Column != "analysisSF" {
				t.Fatalf("%s %s: model breakdowns %+v, want analysis then analysisSF", o.Spec.Name, s.Label, s.Models)
			}
			for k, m := range []float64{paper[si].SaturationPoint(1.0, 1e-4), sf[si].SaturationPoint(1.0, 1e-4)} {
				if s.Models[k].Knee != m {
					t.Errorf("%s %s %s: knee %v, model's %v", o.Spec.Name, s.Label, s.Models[k].Column, s.Models[k].Knee, m)
				}
			}
			if want := fmt.Sprintf("%s saturates at λ=%.3g", s.Label, s.Models[0].Knee); !strings.Contains(detail, want) {
				t.Errorf("%s: assertion reads %q, want %q", o.Spec.Name, detail, want)
			}
			for _, b := range s.Models {
				// The grid ends past the knee, so the highest stable rate
				// is not simply the last one.
				if last := s.Points[len(s.Points)-1]; !math.IsInf(column(last, b.Column), 1) {
					t.Fatalf("%s %s %s: λ=%g is stable; the grid must end saturated", o.Spec.Name, s.Label, b.Column, last.Lambda)
				}
				var top Point
				for _, p := range s.Points {
					if v := column(p, b.Column); finite(v) && p.Lambda > top.Lambda {
						top = p
					}
				}
				if top.Lambda == 0 || b.Lambda != top.Lambda {
					t.Fatalf("%s %s %s: breakdown at λ=%v, highest stable rate %v",
						o.Spec.Name, s.Label, b.Column, b.Lambda, top.Lambda)
				}
				if len(b.Clusters) != sys.NumClusters() {
					t.Fatalf("%s %s %s: %d clusters, want %d", o.Spec.Name, s.Label, b.Column, len(b.Clusters), sys.NumClusters())
				}
				var mean float64
				for i, c := range b.Clusters {
					mean += float64(sys.ClusterNodes(i)) / float64(sys.TotalNodes()) * c.Mean
				}
				if want := column(top, b.Column); math.Abs(mean-want) > 1e-12*want {
					t.Errorf("%s %s %s: clusters weight to %v, column reads %v", o.Spec.Name, s.Label, b.Column, mean, want)
				}
			}
		}
	}
}

// TestExplainSkipsColumnsThatAreOff: a model column that is off has no
// breakdown, and a point that is not simulated has none either.
func TestExplainSkipsColumnsThatAreOff(t *testing.T) {
	s, err := Parse(strings.NewReader(`{
	  "name": "sf-only",
	  "system": {"preset": "small"},
	  "engines": {"analysis": false},
	  "traffic": {"flits": 8, "flitBytes": [64], "lambda": {"values": [2e-4]}}
	}`), "sf.json")
	if err != nil {
		t.Fatal(err)
	}
	o := (&Runner{Explain: true}).Run([]*Spec{s})[0]
	if o.Err != nil {
		t.Fatal(o.Err)
	}
	series := o.Result.Series[0]
	if len(series.Models) != 1 || series.Models[0].Column != "analysisSF" {
		t.Errorf("model breakdowns %+v, want analysisSF alone", series.Models)
	}
	if series.Points[0].Sim != nil {
		t.Errorf("point not simulated carries a sim breakdown")
	}
}

// TestExplainReadsFirstReplication: a point's breakdown is its first
// replication's, so it is the same whether the point runs one
// replication or two.
func TestExplainReadsFirstReplication(t *testing.T) {
	two := explainSpecs(t)
	one := explainSpecs(t)
	for _, s := range one {
		s.Engines.Replications = 1
	}
	a := (&Runner{Explain: true}).Run(two)
	b := (&Runner{Explain: true}).Run(one)
	for i := range a {
		for si, s := range a[i].Result.Series {
			for pi, p := range s.Points {
				q := b[i].Result.Series[si].Points[pi]
				if !reflect.DeepEqual(p.Sim, q.Sim) {
					t.Errorf("%s %s λ=%g: breakdown with two replications %+v, with one %+v",
						a[i].Spec.Name, s.Label, p.Lambda, p.Sim, q.Sim)
				}
			}
		}
	}
}
