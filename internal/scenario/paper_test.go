package scenario_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"github.com/ccnet/ccnet/internal/scenario"
)

// reduced returns an edit that gives a campaign a fixed seed and reduced
// simulation message counts, keeping test runtime in seconds while still
// exercising the full pipeline.
func reduced(seed, warmup, measure uint64) func(*scenario.Spec) {
	return func(s *scenario.Spec) {
		s.Seed, s.Engines.Warmup, s.Engines.Measure = seed, warmup, measure
	}
}

func TestFig3Pipeline(t *testing.T) {
	outs := runCampaign(t, "fig3", func(s *scenario.Spec) {
		reduced(1, 500, 4000)(s)
		s.Engines.SimEvery = 5
	})
	r := outs[0].Result
	if r.ID != "fig3" || len(r.Series) != 2 {
		t.Fatalf("fig3 shape: id=%s series=%d", r.ID, len(r.Series))
	}
	for _, s := range r.Series {
		if len(s.Points) != 10 {
			t.Fatalf("series %s has %d points, want 10", s.Label, len(s.Points))
		}
		simulated := 0
		for _, p := range s.Points {
			if p.Analysis <= 0 {
				t.Fatalf("non-positive analysis value at λ=%v", p.Lambda)
			}
			if p.AnalysisSF < p.Analysis && !math.IsInf(p.Analysis, 1) {
				t.Fatalf("S&F correction reduced latency at λ=%v", p.Lambda)
			}
			if !math.IsNaN(p.Simulation) {
				simulated++
			}
		}
		if simulated == 0 {
			t.Fatalf("series %s has no simulated points", s.Label)
		}
	}
	// The d_m=512 curve must sit above d_m=256 everywhere (analysis).
	for i := range r.Series[0].Points {
		a256 := r.Series[0].Points[i].Analysis
		a512 := r.Series[1].Points[i].Analysis
		if !math.IsInf(a512, 1) && !math.IsInf(a256, 1) && a512 <= a256 {
			t.Fatalf("dm=512 not slower than dm=256 at λ=%v", r.Series[0].Points[i].Lambda)
		}
	}
}

func TestFigureLightLoadAgreement(t *testing.T) {
	// The headline reproduction claim (finding F-A1): with the
	// store-and-forward gateway correction the model tracks the simulator
	// within ~10 % at light load, while the verbatim Eq 32 composition
	// underestimates badly.
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	outs := runCampaign(t, "fig3", func(s *scenario.Spec) {
		reduced(2, 1000, 8000)(s)
		s.Engines.SimEvery = 3
	})
	paper, sf := scenario.LightLoadError(outs[0].Result, 0.7)
	if math.IsNaN(paper) {
		t.Fatal("no simulated points in light-load region")
	}
	if sf > 12 {
		t.Fatalf("with-S&F light-load error %.1f%%, want <12%%", sf)
	}
	if paper < 25 {
		t.Fatalf("paper-eq light-load error %.1f%% suspiciously low — the documented gap should appear", paper)
	}
}

func TestFig7AnalysisOnly(t *testing.T) {
	outs := runCampaign(t, "fig7", nil)
	if len(outs) != 4 {
		t.Fatalf("fig7 has %d curves, want 4 (2 systems × base/increased)", len(outs))
	}
	for _, o := range outs {
		if !o.Passed() {
			t.Errorf("%s assertions failed: %+v", o.Spec.Name, o.Assertions)
		}
		for _, p := range o.Result.Series[0].Points {
			if !math.IsNaN(p.Simulation) {
				t.Fatalf("fig7 should not simulate (%s)", o.Spec.Name)
			}
		}
	}
	// The increased-bandwidth curve must dominate (lower or equal latency,
	// later saturation) its base curve for both systems.
	for i := 0; i < len(outs); i += 2 {
		base, inc := outs[i], outs[i+1]
		if !strings.HasSuffix(base.Spec.Name, "-base") || !strings.HasSuffix(inc.Spec.Name, "-increased") {
			t.Fatalf("curve order unexpected: %s / %s", base.Spec.Name, inc.Spec.Name)
		}
		bp, ip := base.Result.Series[0].Points, inc.Result.Series[0].Points
		for j := range bp {
			b, n := bp[j].Analysis, ip[j].Analysis
			if math.IsInf(n, 1) && !math.IsInf(b, 1) {
				t.Fatalf("%s saturates before its base at λ=%v", inc.Spec.Name, bp[j].Lambda)
			}
			if !math.IsInf(b, 1) && !math.IsInf(n, 1) && n > b+1e-9 {
				t.Fatalf("%s slower than base at λ=%v (%v vs %v)", inc.Spec.Name, bp[j].Lambda, n, b)
			}
		}
	}
}

func TestAblationRunsAllVariants(t *testing.T) {
	outs := runCampaign(t, "ablation", nil)
	// Five variant curves: one analysis column per file, plus the
	// reconstructed file's analysisSF column (store-and-forward gateways).
	curves := map[string][]float64{}
	for _, o := range outs {
		if !o.Passed() {
			t.Errorf("%s assertions failed: %+v", o.Spec.Name, o.Assertions)
		}
		if len(o.Assertions) == 0 || o.Assertions[0].Spec.Type != "saturation" {
			t.Errorf("%s lacks its saturation assertion", o.Spec.Name)
		}
		for _, p := range o.Result.Series[0].Points {
			curves[o.Spec.Name] = append(curves[o.Spec.Name], p.Analysis)
			if !math.IsNaN(p.AnalysisSF) {
				curves[o.Spec.Name+"/analysisSF"] = append(curves[o.Spec.Name+"/analysisSF"], p.AnalysisSF)
			}
		}
	}
	if len(curves) != 5 {
		t.Fatalf("ablation has %d variant curves, want 5: %v", len(curves), curves)
	}
	// The paper-literal variant saturates within the plotted grid; the
	// reconstructed default does not (matching the figures).
	rec, lit := curves["ablation-reconstructed"], curves["ablation-paper-literal"]
	recSat, litSat := 0, 0
	for i := range rec {
		if math.IsInf(rec[i], 1) {
			recSat++
		}
		if math.IsInf(lit[i], 1) {
			litSat++
		}
	}
	if recSat != 0 {
		t.Fatalf("reconstructed variant saturates %d grid points", recSat)
	}
	if litSat == 0 {
		t.Fatal("paper-literal variant never saturates on the figure grid")
	}
}

func TestNonUniformExtension(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	outs := runCampaign(t, "nonuniform", reduced(5, 500, 3000))
	byName := map[string][]scenario.Point{}
	for _, o := range outs {
		byName[o.Spec.Name] = o.Result.Series[0].Points
	}
	uni := byName["nonuniform-uniform"]
	local := byName["nonuniform-local-90"]
	if uni == nil || local == nil {
		t.Fatalf("missing curves: %v", byName)
	}
	// Strong locality must beat uniform at the higher rates (gateways
	// relieved).
	last := len(uni) - 1
	if !(local[last].Simulation < uni[last].Simulation) {
		t.Fatalf("cluster-local 90%% (%v) not faster than uniform (%v) at λ=%v",
			local[last].Simulation, uni[last].Simulation, uni[last].Lambda)
	}
}

func TestWriteCSVAndRender(t *testing.T) {
	for _, o := range runCampaign(t, "fig7", nil) {
		r := o.Result
		var csv bytes.Buffer
		if err := scenario.WriteCSV(&csv, r); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
		wantRows := 1 // header
		for _, s := range r.Series {
			wantRows += len(s.Points)
		}
		if len(lines) != wantRows {
			t.Fatalf("%s CSV has %d lines, want %d", r.ID, len(lines), wantRows)
		}
		if !strings.HasPrefix(lines[0], "experiment,series,lambda") {
			t.Fatalf("CSV header malformed: %s", lines[0])
		}

		var txt bytes.Buffer
		if err := scenario.Render(&txt, r); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(txt.String(), "== "+r.ID+": ") {
			t.Fatalf("rendered output missing scenario id %s", r.ID)
		}
	}
}

func TestBufferDepthAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	outs := runCampaign(t, "bufferdepth", func(s *scenario.Spec) {
		reduced(3, 500, 4000)(s)
		s.Engines.MaxBacklog = 8000
	})
	if len(outs) != 5 {
		t.Fatalf("buffer-depth ablation has %d curves, want 5", len(outs))
	}
	// At the highest probed rate, depth 32 must be far below depth 1
	// (which is past its knee there).
	d1, d32 := outs[0].Result.Series[0].Points, outs[len(outs)-1].Result.Series[0].Points
	if outs[0].Spec.Engines.BufferDepth != 1 || outs[len(outs)-1].Spec.Engines.BufferDepth != 32 {
		t.Fatalf("curve order unexpected: %s … %s", outs[0].Spec.Name, outs[len(outs)-1].Spec.Name)
	}
	last := len(d1) - 1
	s1, s32 := d1[last].Simulation, d32[last].Simulation
	if math.IsInf(s32, 1) {
		t.Fatal("deep buffers saturated at the probe rate")
	}
	if !math.IsInf(s1, 1) && s32 >= s1/2 {
		t.Fatalf("depth 32 (%v) not well below depth 1 (%v) at λ=%v", s32, s1, d1[last].Lambda)
	}
	// At moderate load (λ=4e-4, ~40 % of the model's saturation) deep
	// buffers bring the simulator close to the buffer-blind model.
	mid := 1
	model := d32[mid].AnalysisSF
	s32mid := d32[mid].Simulation
	if math.Abs(model-s32mid)/s32mid > 0.35 {
		t.Fatalf("depth 32 sim %v far from model %v at λ=%v", s32mid, model, d32[mid].Lambda)
	}
	// And deep buffers must dominate shallow ones there too.
	if s1mid := d1[mid].Simulation; !math.IsInf(s1mid, 1) && s32mid > s1mid {
		t.Fatalf("depth 32 slower than depth 1 at λ=%v", d32[mid].Lambda)
	}
}

func TestRenderChart(t *testing.T) {
	o := runCampaign(t, "fig7", nil)[2] // fig7-544-base
	var buf bytes.Buffer
	if err := scenario.RenderChart(&buf, o.Result, 60, 16); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"traffic generation rate", "N=544, Base", "Lm=256 (analysis)", "+----"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q", want)
		}
	}
	// Simulation-free figures must not list sim curves.
	if strings.Contains(out, "(sim)") {
		t.Error("chart lists a simulation curve for an analysis-only figure")
	}
}

// TestCIOnlyBesideSimulatedMean: WriteCSV and Render print a confidence
// interval only for a point that holds a simulated mean; a point not
// simulated, or saturated, gets an empty sim_ci cell and a "-" column.
func TestCIOnlyBesideSimulatedMean(t *testing.T) {
	nan := math.NaN()
	r := &scenario.Result{ID: "ci", Title: "ci", Series: []scenario.Series{{Label: "s", Points: []scenario.Point{
		{Lambda: 1e-4, Analysis: 10, AnalysisSF: nan, Simulation: nan},
		{Lambda: 2e-4, Analysis: 20, AnalysisSF: nan, Simulation: math.Inf(1)},
		{Lambda: 3e-4, Analysis: 30, AnalysisSF: nan, Simulation: 31, SimCI: 1.5},
	}}}}
	var csv bytes.Buffer
	if err := scenario.WriteCSV(&csv, r); err != nil {
		t.Fatal(err)
	}
	want := "experiment,series,lambda,analysis,analysis_sf,simulation,sim_ci\n" +
		"ci,s,0.0001,10,,,\n" +
		"ci,s,0.0002,20,,inf,\n" +
		"ci,s,0.0003,30,,31,1.5\n"
	if csv.String() != want {
		t.Fatalf("CSV:\n%s\nwant:\n%s", csv.String(), want)
	}
	var txt bytes.Buffer
	if err := scenario.Render(&txt, r); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(txt.String(), "\n")
	for i, want := range [][2]string{{"-", "-"}, {"sat", "-"}, {"31.0", "1.5"}} {
		f := strings.Fields(lines[3+i])
		if len(f) != 5 || f[3] != want[0] || f[4] != want[1] {
			t.Errorf("row %d = %q, want sim %s and ci95 %s", i, lines[3+i], want[0], want[1])
		}
	}
}
