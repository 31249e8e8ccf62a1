package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/ccnet/ccnet/internal/clitest"
)

// runAt runs the CLI at GOMAXPROCS procs, the size of its one parallel
// loop.
func runAt(procs int, args ...string) clitest.Result {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return clitest.Run(run, args...)
}

// TestRun exercises the CLI contract: -version exits 0, bad verbs and
// bad flags exit 2 with usage text, and validate works against the
// shipped example scenarios.
func TestRun(t *testing.T) {
	clitest.Table(t, run, []clitest.Case{
		{Name: "version", Args: []string{"-version"}, WantCode: 0, WantStdout: "ccscen version"},
		{Name: "noArgs", Args: []string{}, WantCode: 2, WantStderr: "usage:"},
		{Name: "unknownVerb", Args: []string{"frobnicate"}, WantCode: 2, WantStderr: `unknown verb "frobnicate"`},
		{Name: "help", Args: []string{"help"}, WantCode: 0, WantStdout: "usage:"},
		{Name: "helpExplain", Args: []string{"help"}, WantCode: 0, WantStdout: "  -explain     after each series' table"},
		{Name: "runBadFlag", Args: []string{"run", "-no-such-flag"}, WantCode: 2, WantStderr: "flag provided but not defined"},
		{Name: "runNoFiles", Args: []string{"run"}, WantCode: 2, WantStderr: "at least one scenario file"},
		{Name: "validateNoFiles", Args: []string{"validate"}, WantCode: 2, WantStderr: "at least one scenario file"},
		{Name: "validateMissing", Args: []string{"validate", "no-such-file.json"}, WantCode: 1, WantStderr: "no-such-file.json"},
		{Name: "validateExamples", Args: []string{"validate", "../../examples/scenarios/fig3.json"}, WantCode: 0, WantStdout: "ok: fig3"},
		{Name: "listExamples", Args: []string{"list", "../../examples/scenarios"}, WantCode: 0, WantStdout: "fig3"},
		{Name: "batchBadFlag", Args: []string{"batch", "-no-such-flag"}, WantCode: 2, WantStderr: "flag provided but not defined"},
		{Name: "batchNoFile", Args: []string{"batch"}, WantCode: 2, WantStderr: "exactly one batch file"},
		{Name: "batchMissing", Args: []string{"batch", "no-such-file.json"}, WantCode: 1, WantStderr: "no-such-file.json"},
		{Name: "optimizeBadFlag", Args: []string{"optimize", "-no-such-flag"}, WantCode: 2, WantStderr: "flag provided but not defined"},
		{Name: "optimizeNoFile", Args: []string{"optimize"}, WantCode: 2, WantStderr: "exactly one search spec"},
		{Name: "optimizeMissing", Args: []string{"optimize", "no-such-file.json"}, WantCode: 1, WantStderr: "no-such-file.json"},
		{Name: "optimizeExample", Args: []string{"optimize", "../../examples/scenarios/optimize/icn2-upgrade-pareto.json"},
			WantCode: 0, WantStdout: "Pareto frontier"},
		{Name: "perfBadFlag", Args: []string{"perf", "-no-such-flag"}, WantCode: 2, WantStderr: "flag provided but not defined"},
		{Name: "perfNoFile", Args: []string{"perf"}, WantCode: 2, WantStderr: "exactly one scenario file"},
		{Name: "perfMissing", Args: []string{"perf", "no-such-file.json"}, WantCode: 1, WantStderr: "no-such-file.json"},
		{Name: "fleetBadFlag", Args: []string{"fleet", "-no-such-flag"}, WantCode: 2, WantStderr: "flag provided but not defined"},
		{Name: "fleetNoFile", Args: []string{"fleet"}, WantCode: 2, WantStderr: "exactly one scenario file"},
		{Name: "fleetMissing", Args: []string{"fleet", "no-such-file.json"}, WantCode: 1, WantStderr: "no-such-file.json"},
		// validate walks directories recursively and dispatches each file
		// by kind: fleetsim specs load through the scenario loader,
		// optimize search specs through the optimizer's.
		{Name: "validateRecursive", Args: []string{"validate", "../../examples/scenarios"},
			WantCode: 0, WantStdout: "ok: fleet-az-cascade-1120"},
		{Name: "validateOptimizeKind", Args: []string{"validate", "../../examples/scenarios/optimize/icn2-upgrade-pareto.json"},
			WantCode: 0, WantStdout: "ok: icn2-upgrade-pareto"},
	})
}

// TestListDirReportsBrokenFiles: list walks a directory the way
// validate does, prints each document's relative path, kind, name and
// description, and reports a broken file inline without hiding the rest.
func TestListDirReportsBrokenFiles(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"good.json": `{"name": "t", "description": "a good one", "system": {"preset": "small"},
			"traffic": {"flits": 8, "flitBytes": [64], "lambda": {"min": 1e-4, "max": 1e-3, "points": 4}}}`,
		"broken.json":   `{"name":`,
		"opt/spec.json": strings.Replace(optimizeSpec, "{", `{"kind": "optimize",`, 1),
	}
	for name, body := range files {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got := clitest.Run(run, "list", dir)
	if got.Code != 0 {
		t.Fatalf("exit %d: %s", got.Code, got.Stderr)
	}
	lines := strings.Split(strings.TrimSpace(got.Stdout), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines, want 3:\n%s", len(lines), got.Stdout)
	}
	for i, want := range [][]string{
		{"broken.json", "INVALID:"},
		{"good.json", "scenario", "t", "a good one"},
		{filepath.Join("opt", "spec.json"), "optimize", "cli-opt"},
	} {
		if f := strings.Fields(lines[i]); len(f) < len(want) || !slices.Equal(f[:len(want)-1], want[:len(want)-1]) ||
			!strings.Contains(lines[i], want[len(want)-1]) {
			t.Errorf("line %d = %q, want fields %q", i, lines[i], want)
		}
	}

	// Every shipped document lists, none of them broken.
	got = clitest.Run(run, "list", "../../examples/scenarios")
	lines = strings.Split(strings.TrimSpace(got.Stdout), "\n")
	if got.Code != 0 || len(lines) != 32 || strings.Contains(got.Stdout, "INVALID") {
		t.Fatalf("exit %d, %d lines, want 32 valid documents:\n%s", got.Code, len(lines), got.Stdout)
	}
}

// optimizeSpec is a fast 96-candidate grid with a cost model.
const optimizeSpec = `{
	"name": "cli-opt",
	"space": {
		"ports": [4],
		"icn2Scale": [1, 1.5],
		"groups": [{"counts": [0, 4, 8], "treeLevels": [1, 2], "icn1": ["net1", "net2"], "ecn1": ["net1", "net2"]}]
	},
	"message": {"flits": 16, "flitBytes": 128},
	"constraints": {"cost": {"switchBase": 10, "linkBase": 1}}
}`

// TestOptimizeVerb runs a small search end to end: the frontier table
// renders, -out writes the report, and repeated runs (at GOMAXPROCS 1
// and 4) are bit-identical.
func TestOptimizeVerb(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(spec, []byte(optimizeSpec), 0o644); err != nil {
		t.Fatal(err)
	}

	out1 := filepath.Join(dir, "rep1.json")
	got := runAt(1, "optimize", "-out", out1, spec)
	if got.Code != 0 {
		t.Fatalf("exit %d: %s", got.Code, got.Stderr)
	}
	if !strings.Contains(got.Stdout, "Pareto frontier") || !strings.Contains(got.Stdout, "best (*)") {
		t.Fatalf("missing frontier output:\n%s", got.Stdout)
	}

	out2 := filepath.Join(dir, "rep2.json")
	got = runAt(4, "optimize", "-out", out2, spec)
	if got.Code != 0 {
		t.Fatalf("exit %d: %s", got.Code, got.Stderr)
	}
	b1, err := os.ReadFile(out1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("reports differ across GOMAXPROCS 1 and 4")
	}

	// -ndjson speaks the POST /v1/optimize wire format; stdout must be
	// pure NDJSON even with -out (the write notice goes to stderr).
	out3 := filepath.Join(dir, "rep3.json")
	got = clitest.Run(run, "optimize", "-ndjson", "-out", out3, spec)
	if got.Code != 0 {
		t.Fatalf("ndjson exit %d: %s", got.Code, got.Stderr)
	}
	lines := strings.Split(strings.TrimSpace(got.Stdout), "\n")
	for i, l := range lines {
		if !json.Valid([]byte(l)) {
			t.Fatalf("stdout line %d is not JSON: %q", i, l)
		}
	}
	last := lines[len(lines)-1]
	if !strings.Contains(last, `"kind":"result"`) || !strings.Contains(last, `"cached":false`) {
		t.Fatalf("terminal NDJSON line: %s", last)
	}
	if !strings.Contains(got.Stderr, "wrote "+out3) {
		t.Fatalf("write notice missing from stderr: %q", got.Stderr)
	}
}

// TestBatchVerb runs a real mixed batch file and checks the NDJSON
// stream: one result line per item in order, a summary line, and a
// cache hit for the repeated spec.
func TestBatchVerb(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.json")
	doc := `{"items": [
		{"id": "one", "kind": "evaluate", "spec": {"system": {"preset": "small"}, "message": {"flits": 16, "flitBytes": 128}, "lambda": 1e-4}},
		{"id": "two", "kind": "evaluate", "spec": {"system": {"preset": "small"}, "message": {"flits": 16, "flitBytes": 128}, "lambda": 1e-4}}
	]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	got := runAt(1, "batch", path)
	if got.Code != 0 {
		t.Fatalf("exit %d: %s", got.Code, got.Stderr)
	}
	lines := strings.Split(strings.TrimSpace(got.Stdout), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d NDJSON lines, want 3:\n%s", len(lines), got.Stdout)
	}
	if !strings.Contains(lines[0], `"id":"one"`) || !strings.Contains(lines[1], `"id":"two"`) {
		t.Fatalf("result lines out of order:\n%s", got.Stdout)
	}
	if !strings.Contains(lines[1], `"cached":true`) {
		t.Fatalf("repeated spec not answered from cache: %s", lines[1])
	}
	if !strings.Contains(lines[2], `"kind":"result"`) || !strings.Contains(lines[2], `"cacheHits":1`) {
		t.Fatalf("bad summary line: %s", lines[2])
	}

	// A batch with a failing item exits 1 but still streams all lines.
	bad := filepath.Join(t.TempDir(), "bad.json")
	doc = `{"items": [
		{"kind": "evaluate", "spec": {"system": {"preset": "small"}, "message": {"flits": 16, "flitBytes": 128}, "lambda": 1e-4}},
		{"kind": "nope", "spec": {}}
	]}`
	if err := os.WriteFile(bad, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	got = clitest.Run(run, "batch", bad)
	if got.Code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", got.Code, got.Stderr)
	}
	if !strings.Contains(got.Stdout, `unknown kind \"nope\"`) {
		t.Fatalf("item error missing from stream:\n%s", got.Stdout)
	}
	if !strings.Contains(got.Stderr, "1 of 2 batch item(s) failed") {
		t.Fatalf("stderr %q lacks the failure count", got.Stderr)
	}
}

// TestBatchVerbEmptyStream is the empty-batch regression: a zero-item
// document and a completely empty stdin both exit 0 with exactly one
// valid zero-item summary line.
func TestBatchVerbEmptyStream(t *testing.T) {
	for name, doc := range map[string]string{"emptyItems": `{"items": []}`, "emptyObject": `{}`} {
		path := filepath.Join(t.TempDir(), "empty.json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		got := clitest.Run(run, "batch", path)
		if got.Code != 0 {
			t.Fatalf("%s: exit %d: %s", name, got.Code, got.Stderr)
		}
		lines := strings.Split(strings.TrimSpace(got.Stdout), "\n")
		if len(lines) != 1 {
			t.Fatalf("%s: %d NDJSON lines, want one summary:\n%s", name, len(lines), got.Stdout)
		}
		var sum struct {
			Kind   string `json:"kind"`
			Result struct {
				Items int `json:"items"`
			} `json:"result"`
		}
		if err := json.Unmarshal([]byte(lines[0]), &sum); err != nil {
			t.Fatalf("%s: summary does not parse: %v", name, err)
		}
		if sum.Kind != "result" || sum.Result.Items != 0 {
			t.Fatalf("%s: summary line %s", name, lines[0])
		}
	}
}

// perfScenario is a fast exact-space performability study.
const perfScenario = `{
	"name": "cli-perf",
	"system": {"preset": "small"},
	"traffic": {"flits": 16, "flitBytes": [128], "lambda": {"max": 0.01, "points": 4}},
	"performability": {
		"nodes": [
			{"group": 0, "mttf": 2000, "mttr": 50},
			{"group": 1, "mttf": 1500, "mttr": 50, "repairers": 2}
		],
		"icn2Switches": [{"level": 0, "mttf": 50000, "mttr": 100}],
		"states": {"maxExact": 1000}
	}
}`

// TestPerfVerb runs a performability analysis end to end: the table
// renders, -out writes the report, repeated runs at GOMAXPROCS 1 and 8
// are bit-identical, and -ndjson speaks the wire format.
func TestPerfVerb(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "perf.json")
	if err := os.WriteFile(spec, []byte(perfScenario), 0o644); err != nil {
		t.Fatal(err)
	}

	out1 := filepath.Join(dir, "rep1.json")
	got := runAt(1, "perf", "-out", out1, spec)
	if got.Code != 0 {
		t.Fatalf("exit %d: %s", got.Code, got.Stderr)
	}
	for _, want := range []string{"failure classes", "availability", "capacity percentiles", "top states"} {
		if !strings.Contains(got.Stdout, want) {
			t.Fatalf("table output missing %q:\n%s", want, got.Stdout)
		}
	}

	out2 := filepath.Join(dir, "rep2.json")
	got = runAt(8, "perf", "-out", out2, spec)
	if got.Code != 0 {
		t.Fatalf("exit %d: %s", got.Code, got.Stderr)
	}
	b1, err := os.ReadFile(out1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("reports differ across GOMAXPROCS 1 and 8")
	}

	got = clitest.Run(run, "perf", "-ndjson", spec)
	if got.Code != 0 {
		t.Fatalf("ndjson exit %d: %s", got.Code, got.Stderr)
	}
	lines := strings.Split(strings.TrimSpace(got.Stdout), "\n")
	last := lines[len(lines)-1]
	if !strings.Contains(last, `"kind":"result"`) || !strings.Contains(last, `"cached":false`) {
		t.Fatalf("terminal NDJSON line: %s", last)
	}

	// A scenario without the block is a clean failure.
	plain := filepath.Join(dir, "plain.json")
	if err := os.WriteFile(plain, []byte(`{
		"name": "no-block",
		"system": {"preset": "small"},
		"traffic": {"flits": 16, "flitBytes": [128], "lambda": {"max": 0.01, "points": 4}}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	got = clitest.Run(run, "perf", plain)
	if got.Code != 1 || !strings.Contains(got.Stderr, "no performability block") {
		t.Fatalf("exit %d stderr %q", got.Code, got.Stderr)
	}
}

// fleetScenario is a fast fully-scripted fleet simulation: an 8-node
// knockout at t=100, repaired at t=500, with a passing recovery bound.
const fleetScenario = `{
	"kind": "fleetsim",
	"name": "cli-fleet",
	"system": {"preset": "small"},
	"traffic": {"flits": 16, "flitBytes": [128], "lambda": {"max": 0.01, "points": 4}},
	"performability": {
		"nodes": [{"group": 1, "mttf": 1500, "mttr": 50, "repairers": 2}]
	},
	"fleetsim": {
		"horizon": 1000,
		"epoch": 100,
		"stochastic": false,
		"timeline": [
			{"at": 100, "action": "inject_failure", "class": "nodes[g1]", "count": 8},
			{"at": 500, "action": "repair", "class": "nodes[g1]", "count": 8}
		],
		"assertions": [{"check": "recovers_within", "value": 600}]
	}
}`

// TestFleetVerb runs a fleet simulation end to end: the table renders,
// -out writes the report, repeated runs at GOMAXPROCS 1 and 8 are
// bit-identical, -ndjson speaks the wire format, and failed assertions
// map to exit status 1.
func TestFleetVerb(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "fleet.json")
	if err := os.WriteFile(spec, []byte(fleetScenario), 0o644); err != nil {
		t.Fatal(err)
	}

	out1 := filepath.Join(dir, "rep1.json")
	got := runAt(1, "fleet", "-out", out1, spec)
	if got.Code != 0 {
		t.Fatalf("exit %d: %s", got.Code, got.Stderr)
	}
	for _, want := range []string{"timeline (as applied)", "long-run", "recovers_within", "PASS"} {
		if !strings.Contains(got.Stdout, want) {
			t.Fatalf("table output missing %q:\n%s", want, got.Stdout)
		}
	}

	out2 := filepath.Join(dir, "rep2.json")
	got = runAt(8, "fleet", "-out", out2, spec)
	if got.Code != 0 {
		t.Fatalf("exit %d: %s", got.Code, got.Stderr)
	}
	b1, err := os.ReadFile(out1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("reports differ across GOMAXPROCS 1 and 8")
	}

	got = clitest.Run(run, "fleet", "-ndjson", spec)
	if got.Code != 0 {
		t.Fatalf("ndjson exit %d: %s", got.Code, got.Stderr)
	}
	lines := strings.Split(strings.TrimSpace(got.Stdout), "\n")
	for i, l := range lines {
		if !json.Valid([]byte(l)) {
			t.Fatalf("stdout line %d is not JSON: %q", i, l)
		}
	}
	if len(lines) != 11 {
		t.Fatalf("%d NDJSON lines, want 10 epochs + result:\n%s", len(lines), got.Stdout)
	}
	last := lines[len(lines)-1]
	if !strings.Contains(last, `"kind":"result"`) || !strings.Contains(last, `"cached":false`) {
		t.Fatalf("terminal NDJSON line: %s", last)
	}

	// A scenario without the block is a clean failure.
	plain := filepath.Join(dir, "plain.json")
	if err := os.WriteFile(plain, []byte(`{
		"name": "no-fleet-block",
		"system": {"preset": "small"},
		"traffic": {"flits": 16, "flitBytes": [128], "lambda": {"max": 0.01, "points": 4}}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	got = clitest.Run(run, "fleet", plain)
	if got.Code != 1 || !strings.Contains(got.Stderr, "no fleetsim block") {
		t.Fatalf("exit %d stderr %q", got.Code, got.Stderr)
	}

	// A timeline against a class the performability block never declared
	// fails at load time with the valid labels listed.
	badClass := filepath.Join(dir, "badclass.json")
	if err := os.WriteFile(badClass, []byte(strings.ReplaceAll(fleetScenario, "nodes[g1]", "nodes[g7]")), 0o644); err != nil {
		t.Fatal(err)
	}
	got = clitest.Run(run, "fleet", badClass)
	if got.Code != 1 || !strings.Contains(got.Stderr, "unknown class") || !strings.Contains(got.Stderr, "nodes[g1]") {
		t.Fatalf("exit %d stderr %q", got.Code, got.Stderr)
	}

	// A violated assertion renders FAIL and exits 1.
	failing := filepath.Join(dir, "failing.json")
	if err := os.WriteFile(failing, []byte(strings.ReplaceAll(fleetScenario, `"value": 600`, `"value": 300`)), 0o644); err != nil {
		t.Fatal(err)
	}
	got = clitest.Run(run, "fleet", failing)
	if got.Code != 1 || !strings.Contains(got.Stdout, "FAIL") || !strings.Contains(got.Stderr, "fleet assertion(s) failed") {
		t.Fatalf("exit %d stdout %q stderr %q", got.Code, got.Stdout, got.Stderr)
	}
}

// onePointScenario simulates one rate on the small system: the scenario
// form of a single simulation run.
const onePointScenario = `{
	"name": "cli-one-point", "seed": 29,
	"system": {"preset": "small"},
	"traffic": {"flits": 8, "flitBytes": [64], "lambda": {"values": [2e-3]}},
	"engines": {"simulation": true, "simEvery": 1, "warmup": 100, "measure": 1000}
}`

// timing matches the lines of run's output that carry wall-clock times.
var timing = regexp.MustCompile(`(?m)^(\(.* completed in .*\)|campaign: .*)\n`)

func writeSpec(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunExplain: -explain prints, after the series' table, each model
// column's knee and per-cluster terms and the simulated point's stage
// split; without its lines the output is run's, and the CSV is
// byte-identical.
func TestRunExplain(t *testing.T) {
	spec := writeSpec(t, onePointScenario)
	dir := t.TempDir()
	plain := clitest.Run(run, "run", "-outdir", filepath.Join(dir, "plain"), spec)
	explained := clitest.Run(run, "run", "-explain", "-outdir", filepath.Join(dir, "explain"), spec)
	if plain.Code != 0 || explained.Code != 0 {
		t.Fatalf("exit %d and %d: %s%s", plain.Code, explained.Code, plain.Stderr, explained.Stderr)
	}
	for _, want := range []string{
		"explain analysis: knee λ=", "explain analysisSF: knee λ=", "; per-cluster terms at λ=2.0000e-03",
		"  i    U      W_in     T_in     L_in     T_ex     W_d      L_out    mean\n  0    ",
		"explain sim λ=2.000e-03, first replication: intra ", ", peak backlog ", ", gateway util ",
		"  intra stages: source wait ", "  inter stages: source wait ", ", concentrator wait ", ", dispatcher wait ",
		"  busiest channels: ",
	} {
		if !strings.Contains(explained.Stdout, want) {
			t.Errorf("-explain output lacks %q:\n%s", want, explained.Stdout)
		}
	}
	if strings.Contains(plain.Stdout, "explain") {
		t.Errorf("output without -explain explains:\n%s", plain.Stdout)
	}
	var kept []string
	for _, line := range strings.SplitAfter(explained.Stdout, "\n") {
		if !strings.HasPrefix(line, "explain ") && !strings.HasPrefix(line, "  ") {
			kept = append(kept, line)
		}
	}
	strip := func(s string) string {
		return strings.ReplaceAll(timing.ReplaceAllString(s, ""), filepath.Join(dir, "explain"), filepath.Join(dir, "plain"))
	}
	if got, want := strip(strings.Join(kept, "")), strip(plain.Stdout); got != want {
		t.Errorf("-explain changed run's own lines:\n%s\n---\n%s", got, want)
	}
	a, err := os.ReadFile(filepath.Join(dir, "plain", "cli-one-point.csv"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "explain", "cli-one-point.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("CSV differs with -explain:\n%s\n---\n%s", b, a)
	}
}

// TestOutputDeterministic runs one explained simulation at GOMAXPROCS 1
// and 4: everything but the wall-clock lines is byte-identical, the
// busiest-channel lists included.
func TestOutputDeterministic(t *testing.T) {
	spec := writeSpec(t, onePointScenario)
	out := func(procs int) string {
		got := runAt(procs, "run", "-explain", spec)
		if got.Code != 0 {
			t.Fatalf("exit %d: %s", got.Code, got.Stderr)
		}
		return timing.ReplaceAllString(got.Stdout, "")
	}
	a, b := out(1), out(4)
	if !strings.Contains(a, "busiest channels: ") {
		t.Fatalf("no channel listing in stdout:\n%s", a)
	}
	if a != b {
		t.Fatalf("two runs of one simulation printed different output:\n%s\n---\n%s", a, b)
	}
}
