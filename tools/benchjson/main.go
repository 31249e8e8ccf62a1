// Command benchjson converts `go test -bench` text output (stdin) into a
// stable JSON document (stdout or -out) so CI can archive benchmark
// results as artifacts and the repo can record its performance
// trajectory (BENCH_<n>.json at the repo root).
//
// With -diff it becomes the CI perf-regression gate: fresh bench output
// on stdin is compared against a committed baseline document, and the
// tool exits 1 when a gated benchmark regressed — more than -max-time-pct
// percent slower on ns/op, or any increase in allocs/op — or disappeared
// from either side (a rename must update the gate, not silently disable
// it). Repeated lines of one benchmark (go test -count N) are compared by
// their median ns/op and median allocs/op, on both sides; the report
// carries each side's run count and ns/op range. The comparison report
// is written as JSON (stdout or -out) either way, so CI can upload it as
// an artifact.
//
// Usage:
//
//	go test -bench=. -benchtime=1x -run='^$' . | go run ./tools/benchjson -out BENCH_2.json
//	go test -bench='^(BenchmarkEvaluate|BenchmarkCanonicalize|BenchmarkSweepParallel)$' \
//	  -benchtime=2s -count 3 -benchmem -run='^$' . | \
//	  go run ./tools/benchjson -diff BENCH_3.json -gate Evaluate,Canonicalize,SweepParallel \
//	  -max-time-pct 25 -out bench-diff.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark line.
type Benchmark struct {
	// Name is the benchmark function name without the "Benchmark" prefix
	// and the -GOMAXPROCS suffix.
	Name       string `json:"name"`
	Procs      int    `json:"procs,omitempty"`
	Iterations int64  `json:"iterations"`
	// Metrics maps unit → value, e.g. "ns/op", "B/op", "speedup-x".
	Metrics map[string]float64 `json:"metrics"`
}

// Document is the archived result set.
type Document struct {
	Schema     string      `json:"schema"`
	Go         string      `json:"go"`
	OS         string      `json:"os"`
	Arch       string      `json:"arch"`
	Date       string      `json:"date,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "write JSON here (default stdout)")
	date := flag.String("date", "", "optional ISO timestamp recorded in the document")
	diff := flag.String("diff", "", "baseline document to gate fresh results against")
	gate := flag.String("gate", "Evaluate,Canonicalize,SweepParallel",
		"comma-separated benchmark names the -diff gate enforces")
	maxTimePct := flag.Float64("max-time-pct", 25,
		"maximum tolerated ns/op regression percentage for gated benchmarks")
	flag.Parse()

	doc, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	doc.Date = *date

	var payload any = doc
	failed := false
	if *diff != "" {
		baseline, err := loadDocument(*diff)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		report := diffDocuments(baseline, doc, splitGate(*gate), *maxTimePct)
		payload = report
		failed = report.Failed
		for _, e := range report.Entries {
			fmt.Fprintf(os.Stderr, "benchjson: %-16s %-10s %s\n", e.Name, e.Status, e.Detail)
		}
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(payload); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchjson: performance regression gate FAILED")
		os.Exit(1)
	}
}

// DiffEntry is one gated benchmark's comparison.
type DiffEntry struct {
	Name string `json:"name"`
	// Status is "ok", "regression" or "missing".
	Status string `json:"status"`
	Detail string `json:"detail"`

	// Times and allocation counts are medians over each side's runs;
	// the ns/op range of the runs is their spread.
	BaseTimeNs     float64 `json:"baseTimeNs,omitempty"`
	FreshTimeNs    float64 `json:"freshTimeNs,omitempty"`
	TimeDeltaPct   float64 `json:"timeDeltaPct,omitempty"`
	BaseAllocs     float64 `json:"baseAllocs,omitempty"`
	FreshAllocs    float64 `json:"freshAllocs,omitempty"`
	BaseRuns       int     `json:"baseRuns,omitempty"`
	FreshRuns      int     `json:"freshRuns,omitempty"`
	BaseTimeMinNs  float64 `json:"baseTimeMinNs,omitempty"`
	BaseTimeMaxNs  float64 `json:"baseTimeMaxNs,omitempty"`
	FreshTimeMinNs float64 `json:"freshTimeMinNs,omitempty"`
	FreshTimeMaxNs float64 `json:"freshTimeMaxNs,omitempty"`
}

// DiffReport is the -diff output document.
type DiffReport struct {
	Schema     string      `json:"schema"`
	BaselineGo string      `json:"baselineGo"`
	FreshGo    string      `json:"freshGo"`
	MaxTimePct float64     `json:"maxTimePct"`
	Entries    []DiffEntry `json:"entries"`
	Failed     bool        `json:"failed"`
}

// splitGate parses the -gate list.
func splitGate(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// loadDocument reads a previously archived benchmark document.
func loadDocument(path string) (*Document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Document
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// summary is one benchmark's runs in a document, collapsed: the median
// ns/op and allocs/op, and the ns/op range.
type summary struct {
	runs                 int
	timeNs, allocs       float64
	minTimeNs, maxTimeNs float64
}

// index maps benchmark name → the summary of its runs. Repeated lines
// (go test -count N) collapse to their medians; -cpu variants share a
// name, and only the first GOMAXPROCS seen (the default run) counts.
func index(doc *Document) map[string]summary {
	procs := make(map[string]int)
	times := make(map[string][]float64)
	allocs := make(map[string][]float64)
	for _, b := range doc.Benchmarks {
		if p, ok := procs[b.Name]; ok && p != b.Procs {
			continue
		}
		procs[b.Name] = b.Procs
		times[b.Name] = append(times[b.Name], b.Metrics["ns/op"])
		allocs[b.Name] = append(allocs[b.Name], b.Metrics["allocs/op"])
	}
	m := make(map[string]summary, len(times))
	for name, ts := range times {
		m[name] = summary{
			runs:      len(ts),
			timeNs:    median(ts),
			allocs:    median(allocs[name]),
			minTimeNs: slices.Min(ts),
			maxTimeNs: slices.Max(ts),
		}
	}
	return m
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); xs must be non-empty.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// diffDocuments gates fresh against baseline: a gated benchmark fails
// on a ns/op regression beyond maxTimePct percent, on any allocs/op
// increase, or when it is missing from either document.
func diffDocuments(baseline, fresh *Document, gates []string, maxTimePct float64) *DiffReport {
	rep := &DiffReport{
		Schema:     "ccnet-benchdiff/v1",
		BaselineGo: baseline.Go,
		FreshGo:    fresh.Go,
		MaxTimePct: maxTimePct,
	}
	base := index(baseline)
	cur := index(fresh)
	for _, name := range gates {
		e := DiffEntry{Name: name, Status: "ok"}
		b, okB := base[name]
		f, okF := cur[name]
		switch {
		case !okB && !okF:
			e.Status, e.Detail = "missing", "absent from baseline and fresh run"
		case !okB:
			e.Status, e.Detail = "missing", "absent from baseline"
		case !okF:
			e.Status, e.Detail = "missing", "absent from fresh run"
		default:
			e.BaseTimeNs, e.FreshTimeNs = b.timeNs, f.timeNs
			e.BaseAllocs, e.FreshAllocs = b.allocs, f.allocs
			e.BaseRuns, e.FreshRuns = b.runs, f.runs
			e.BaseTimeMinNs, e.BaseTimeMaxNs = b.minTimeNs, b.maxTimeNs
			e.FreshTimeMinNs, e.FreshTimeMaxNs = f.minTimeNs, f.maxTimeNs
			if e.BaseTimeNs > 0 {
				e.TimeDeltaPct = 100 * (e.FreshTimeNs - e.BaseTimeNs) / e.BaseTimeNs
				e.TimeDeltaPct = math.Round(e.TimeDeltaPct*100) / 100
			}
			var problems []string
			if e.BaseTimeNs > 0 && e.TimeDeltaPct > maxTimePct {
				problems = append(problems, fmt.Sprintf("ns/op %+.1f%% (limit %+.0f%%)", e.TimeDeltaPct, maxTimePct))
			}
			if e.FreshAllocs > e.BaseAllocs {
				problems = append(problems, fmt.Sprintf("allocs/op %g -> %g", e.BaseAllocs, e.FreshAllocs))
			}
			if len(problems) > 0 {
				e.Status = "regression"
				e.Detail = strings.Join(problems, "; ")
			} else {
				e.Detail = fmt.Sprintf("ns/op %+.1f%%, allocs/op %g -> %g",
					e.TimeDeltaPct, e.BaseAllocs, e.FreshAllocs)
			}
			e.Detail += fmt.Sprintf(" (medians of %d vs %d runs; fresh ns/op %.4g–%.4g)",
				e.BaseRuns, e.FreshRuns, e.FreshTimeMinNs, e.FreshTimeMaxNs)
		}
		if e.Status != "ok" {
			rep.Failed = true
		}
		rep.Entries = append(rep.Entries, e)
	}
	return rep
}

// parse extracts Benchmark lines; all other output (test logs, the ok
// trailer) is ignored.
func parse(r io.Reader) (*Document, error) {
	doc := &Document{
		Schema: "ccnet-bench/v1",
		Go:     runtime.Version(),
		OS:     runtime.GOOS,
		Arch:   runtime.GOARCH,
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		b, ok := parseLine(line)
		if ok {
			doc.Benchmarks = append(doc.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines found on stdin")
	}
	return doc, nil
}

// parseLine parses "BenchmarkName-8  10  123 ns/op  4.5 unit ..." into a
// Benchmark; malformed lines report !ok and are skipped.
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, false
	}
	b := Benchmark{Metrics: map[string]float64{}}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if procs, err := strconv.Atoi(name[i+1:]); err == nil {
			b.Procs = procs
			name = name[:i]
		}
	}
	b.Name = name
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b.Iterations = iters
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}
