package scenario_test

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/ccnet/ccnet/internal/cluster"
	"github.com/ccnet/ccnet/internal/core"
	"github.com/ccnet/ccnet/internal/netchar"
	"github.com/ccnet/ccnet/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite golden files")

// paperCampaigns lists the shipped reproductions of the paper's
// evaluation section other than fig3 (pinned by TestFig3GoldenCSV), and
// the cluster-size skew study built on its model: each validation
// figure is one file (examples/scenarios/<id>.json), each other
// experiment one directory holding a file per curve
// (examples/scenarios/<id>/).
var paperCampaigns = []string{"fig4", "fig5", "fig6", "fig7", "ablation", "nonuniform", "bufferdepth", "heterogeneity"}

// runCampaign loads a shipped paper campaign by id, applies edit (which
// may be nil) to each of its specs and runs them through the Runner.
func runCampaign(t testing.TB, id string, edit func(*scenario.Spec)) []*scenario.Outcome {
	t.Helper()
	path := filepath.Join("..", "..", "examples", "scenarios", id)
	if _, err := os.Stat(path + ".json"); err == nil {
		path += ".json"
	}
	specs, err := scenario.LoadAll([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		for _, s := range specs {
			edit(s)
		}
	}
	outs := (&scenario.Runner{}).Run(specs)
	for _, o := range outs {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
	}
	return outs
}

// analysisOnly strips simulation and assertions, leaving the pure
// analytical reproduction.
func analysisOnly(s *scenario.Spec) {
	s.Engines.Simulation = false
	s.Assertions = nil
}

// checkGolden runs campaign id analysis-only and compares the CSVs of
// its files, concatenated in load order, with
// testdata/<id>_analysis.golden.csv; regenerate with `go test -run
// Golden -update ./internal/scenario`.
func checkGolden(t *testing.T, id string) {
	t.Helper()
	var buf bytes.Buffer
	for _, o := range runCampaign(t, id, analysisOnly) {
		if err := scenario.WriteCSV(&buf, o.Result); err != nil {
			t.Fatal(err)
		}
	}
	golden := filepath.Join("testdata", id+"_analysis.golden.csv")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("%s CSV drifted from %s:\n got:\n%s\nwant:\n%s", id, golden, buf.String(), want)
	}
}

// TestFig3GoldenCSV pins the rendered CSV of the fig3 analytical
// reproduction to a golden file.
func TestFig3GoldenCSV(t *testing.T) {
	checkGolden(t, "fig3")
}

// TestCampaignGoldenCSV pins the analytical columns of every other
// paper campaign, one subtest and golden per campaign.
func TestCampaignGoldenCSV(t *testing.T) {
	for _, id := range paperCampaigns {
		t.Run(id, func(t *testing.T) { checkGolden(t, id) })
	}
}

// TestFig3ScenarioMatchesExperiment pins the shipped fig3.json to the
// paper's Fig 3 experiment as the presets define it — the N=1120 system,
// M=32 flits, d_m 256 and 512, ten rates up to 4.75e-4, the paper model
// and its store-and-forward variant — evaluated here straight from the
// model, so the scenario file cannot drift from the figure it claims to
// reproduce.
func TestFig3ScenarioMatchesExperiment(t *testing.T) {
	got := runCampaign(t, "fig3", analysisOnly)[0].Result
	const hi, n = 4.75e-4, 10
	grid := core.LambdaGrid(hi/n, hi, n)
	flitBytes := []int{256, 512}
	if len(got.Series) != len(flitBytes) {
		t.Fatalf("%d series, want %d", len(got.Series), len(flitBytes))
	}
	for si, dm := range flitBytes {
		msg := netchar.MessageSpec{Flits: 32, FlitBytes: dm}
		paper, err := core.New(cluster.System1120(), msg, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sf, err := core.New(cluster.System1120(), msg, core.Options{GatewayStoreAndForward: true})
		if err != nil {
			t.Fatal(err)
		}
		gs := got.Series[si]
		if want := fmt.Sprintf("Lm=%d", dm); gs.Label != want {
			t.Errorf("series %d label %q, want %q", si, gs.Label, want)
		}
		if len(gs.Points) != len(grid) {
			t.Fatalf("series %s: %d points, want %d", gs.Label, len(gs.Points), len(grid))
		}
		for pi, l := range grid {
			gp := gs.Points[pi]
			if !approxEqual(gp.Lambda, l) {
				t.Errorf("%s[%d]: λ=%g, want %g", gs.Label, pi, gp.Lambda, l)
			}
			if want := paper.Evaluate(l).MeanLatency; !approxEqual(gp.Analysis, want) {
				t.Errorf("%s λ=%g: analysis %g, want %g", gs.Label, l, gp.Analysis, want)
			}
			if want := sf.Evaluate(l).MeanLatency; !approxEqual(gp.AnalysisSF, want) {
				t.Errorf("%s λ=%g: analysisSF %g, want %g", gs.Label, l, gp.AnalysisSF, want)
			}
		}
	}
}

// approxEqual compares within 1e-9 relative tolerance (the scenario grid comes
// from JSON literals, the reference grid from runtime division — the
// values may differ in the last ulp).
func approxEqual(a, b float64) bool {
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return true
	}
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}
