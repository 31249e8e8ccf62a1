package load

import (
	"bufio"
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"github.com/ccnet/ccnet/internal/service"
)

func testMix(t *testing.T, s string) []MixEntry {
	t.Helper()
	mix, err := ParseMix(s)
	if err != nil {
		t.Fatal(err)
	}
	return mix
}

func TestParseMix(t *testing.T) {
	mix := testMix(t, "evaluate:4, sweep:1")
	if len(mix) != 2 || mix[0].Endpoint != "evaluate" || mix[0].Weight != 4 || mix[1].Weight != 1 {
		t.Fatalf("mix = %+v", mix)
	}
	if m := testMix(t, "healthz"); m[0].Weight != 1 {
		t.Fatalf("default weight = %v, want 1", m[0].Weight)
	}
	for _, bad := range []string{"", "bogus", "evaluate:x", "evaluate:-1"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}
}

// TestGenerateDeterministic pins the acceptance criterion: the same
// seed reproduces the request sequence byte for byte, and the SHA
// commits to it.
func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{Mix: testMix(t, "evaluate:3,sweep:1"), N: 200, Seed: 42, DupRate: 0.4, Pool: 16}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.SHA != b.SHA {
		t.Fatalf("same seed, different SHA: %s vs %s", a.SHA, b.SHA)
	}
	for i := range a.Requests {
		if a.Requests[i].Endpoint != b.Requests[i].Endpoint ||
			!bytes.Equal(a.Requests[i].Body, b.Requests[i].Body) {
			t.Fatalf("request %d differs between identical-seed runs", i)
		}
	}

	cfg.Seed = 43
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.SHA == a.SHA {
		t.Fatal("different seeds produced the same sequence SHA")
	}
}

func TestGenerateDupRate(t *testing.T) {
	noDup, err := Generate(GenConfig{Mix: testMix(t, "evaluate"), N: 50, Seed: 1, DupRate: 0, Pool: 100})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, r := range noDup.Requests {
		if !r.Fresh {
			t.Fatalf("dup=0 produced non-fresh request %d", r.Index)
		}
		if seen[string(r.Body)] {
			t.Fatalf("dup=0 repeated body %s", r.Body)
		}
		seen[string(r.Body)] = true
	}

	allDup, err := Generate(GenConfig{Mix: testMix(t, "evaluate"), N: 50, Seed: 1, DupRate: 1, Pool: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range allDup.Requests {
		if i == 0 {
			if !r.Fresh {
				t.Fatal("first request cannot be a duplicate")
			}
			continue
		}
		if r.Fresh {
			t.Fatalf("dup=1 produced fresh request %d", i)
		}
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	mix := testMix(t, "evaluate")
	for name, cfg := range map[string]GenConfig{
		"zero n":    {Mix: mix, N: 0},
		"no mix":    {N: 10},
		"dup > 1":   {Mix: mix, N: 10, DupRate: 1.5},
		"dup < 0":   {Mix: mix, N: 10, DupRate: -0.1},
		"bad mixEP": {Mix: []MixEntry{{Endpoint: "nope", Weight: 1}}, N: 10},
	} {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.999, 10}, {0.1, 1}}
	for _, c := range cases {
		if got := percentile(sorted, c.q); got != c.want {
			t.Errorf("p%g = %v, want %v", c.q*100, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
}

func newServerTarget(t *testing.T) Target {
	t.Helper()
	return HandlerTarget{Handler: service.New(service.Options{}).Handler()}
}

// TestOpenLoopRun drives a small Poisson run against the real handler
// and checks the summary accounting: every request lands, no errors,
// the duplication rate shows up as cache hits, and percentiles are
// ordered.
func TestOpenLoopRun(t *testing.T) {
	plan, err := Generate(GenConfig{Mix: testMix(t, "evaluate"), N: 60, Seed: 7, DupRate: 0.5, Pool: 32})
	if err != nil {
		t.Fatal(err)
	}
	results, sum, err := Run(context.Background(), Options{
		Target: newServerTarget(t), Plan: plan, RPS: 2000, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 60 || sum.Requests != 60 {
		t.Fatalf("requests = %d/%d, want 60", len(results), sum.Requests)
	}
	if sum.Errors != 0 {
		t.Fatalf("errors = %d: %+v", sum.Errors, results)
	}
	if sum.Mode != "open" || sum.TargetRPS != 2000 {
		t.Errorf("mode/target = %s/%v", sum.Mode, sum.TargetRPS)
	}
	if sum.HitRate <= 0 {
		t.Error("dup=0.5 run saw no cache hits")
	}
	if sum.Classes["hit"] == 0 || sum.Classes["miss"] == 0 {
		t.Errorf("classes = %v, want both hits and misses", sum.Classes)
	}
	if sum.AchievedRPS <= 0 || sum.ElapsedSeconds <= 0 {
		t.Errorf("throughput accounting: %+v", sum)
	}
	if !(sum.P50Seconds <= sum.P90Seconds && sum.P90Seconds <= sum.P99Seconds && sum.P99Seconds <= sum.P999Seconds) {
		t.Errorf("percentiles out of order: %+v", sum)
	}
	if sum.SpecSHA != plan.SHA {
		t.Error("summary does not carry the plan SHA")
	}
	for i, r := range results {
		if r.Index != i {
			t.Fatalf("result %d has index %d — results must be plan-ordered", i, r.Index)
		}
	}
}

func TestClosedLoopRun(t *testing.T) {
	plan, err := Generate(GenConfig{Mix: testMix(t, "evaluate:2,healthz:1"), N: 40, Seed: 3, DupRate: 0.3, Pool: 16})
	if err != nil {
		t.Fatal(err)
	}
	_, sum, err := Run(context.Background(), Options{
		Target: newServerTarget(t), Plan: plan,
		Closed: true, Workers: 4, ThinkMean: time.Millisecond, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Mode != "closed" || sum.TargetRPS != 0 {
		t.Errorf("mode/target = %s/%v", sum.Mode, sum.TargetRPS)
	}
	if sum.Requests != 40 || sum.Errors != 0 {
		t.Errorf("summary = %+v", sum)
	}
}

func TestRunCancellation(t *testing.T) {
	plan, err := Generate(GenConfig{Mix: testMix(t, "evaluate"), N: 10000, Seed: 1, Pool: 16})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := Run(ctx, Options{Target: newServerTarget(t), Plan: plan, RPS: 10}); err == nil {
		t.Fatal("cancelled open-loop run returned nil error")
	}
	if _, _, err := Run(ctx, Options{Target: newServerTarget(t), Plan: plan, Closed: true}); err == nil {
		t.Fatal("cancelled closed-loop run returned nil error")
	}
}

func TestWriteArtifact(t *testing.T) {
	plan, err := Generate(GenConfig{Mix: testMix(t, "evaluate"), N: 5, Seed: 1, Pool: 4})
	if err != nil {
		t.Fatal(err)
	}
	results, sum, err := Run(context.Background(), Options{Target: newServerTarget(t), Plan: plan, RPS: 5000})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	meta := Meta{Version: "test", Target: "in-process", Mode: sum.Mode, SpecSHA: plan.SHA}
	if err := WriteArtifact(&buf, meta, results, sum); err != nil {
		t.Fatal(err)
	}
	var lines []string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) != 1+5+1 {
		t.Fatalf("artifact has %d lines, want 7", len(lines))
	}
	if !strings.Contains(lines[0], `"type":"meta"`) || !strings.Contains(lines[0], plan.SHA) {
		t.Errorf("meta line: %s", lines[0])
	}
	if !strings.Contains(lines[6], `"type":"summary"`) || !strings.Contains(lines[6], `"p99Seconds"`) {
		t.Errorf("summary line: %s", lines[6])
	}
}

func TestSweepAndBaseline(t *testing.T) {
	cfg := SweepConfig{Endpoints: []string{"evaluate"}, RPS: []float64{2000}, DupRates: []float64{0.3}, N: 30, Seed: 5, Pool: 16}
	newTarget := func() Target { return newServerTarget(t) }
	rep, err := RunSweep(context.Background(), cfg, newTarget, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 1 {
		t.Fatalf("cells = %d, want 1", len(rep.Cells))
	}

	base := BaselineFromReport(rep)
	if v := Compare(rep, base, 60, 150); len(v) != 0 {
		t.Fatalf("self-comparison violated: %v", v)
	}

	// A much faster baseline makes the throughput floor and p99 ceiling
	// both bite.
	cell := rep.Cells[0]
	strict := &Baseline{Cells: map[string]BaselineCell{
		cell.Key(): {AchievedRPS: cell.Summary.AchievedRPS * 10, P99Seconds: cell.Summary.P99Seconds / 100},
	}}
	v := Compare(rep, strict, 60, 150)
	if len(v) != 2 {
		t.Fatalf("violations = %v, want rps floor + p99 ceiling", v)
	}

	// A cell the baseline has never seen must be flagged.
	if v := Compare(rep, &Baseline{Cells: map[string]BaselineCell{}}, 60, 150); len(v) != 1 ||
		!strings.Contains(v[0], "not in baseline") {
		t.Fatalf("missing-cell violations = %v", v)
	}
}
