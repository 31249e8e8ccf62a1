package main

import (
	"fmt"
	"strings"
	"testing"
)

const benchText = `goos: linux
BenchmarkEvaluate-8        	     100	     11000 ns/op	     576 B/op	       4 allocs/op
BenchmarkCanonicalize-8    	     100	    100000 ns/op	    9000 B/op	      29 allocs/op
BenchmarkSweepParallel-8   	     100	    200000 ns/op	   20000 B/op	     100 allocs/op
PASS
ok  	example	1.0s
`

func parseText(t *testing.T, text string) *Document {
	t.Helper()
	doc, err := parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestParse(t *testing.T) {
	doc := parseText(t, benchText)
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[0]
	if b.Name != "Evaluate" || b.Procs != 8 || b.Iterations != 100 {
		t.Errorf("first benchmark: %+v", b)
	}
	if b.Metrics["ns/op"] != 11000 || b.Metrics["allocs/op"] != 4 {
		t.Errorf("metrics: %v", b.Metrics)
	}
}

// withMetrics rewrites one benchmark line's time and allocs.
func withMetrics(t *testing.T, ns, allocs string) *Document {
	t.Helper()
	text := strings.Replace(benchText,
		"11000 ns/op	     576 B/op	       4 allocs/op",
		ns+" ns/op	     576 B/op	       "+allocs+" allocs/op", 1)
	return parseText(t, text)
}

var gates = []string{"Evaluate", "Canonicalize", "SweepParallel"}

func TestDiffPasses(t *testing.T) {
	base := parseText(t, benchText)
	// 20% slower is inside the 25% tolerance; equal allocs pass.
	rep := diffDocuments(base, withMetrics(t, "13200", "4"), gates, 25)
	if rep.Failed {
		t.Fatalf("gate failed on a tolerated delta: %+v", rep.Entries)
	}
	for _, e := range rep.Entries {
		if e.Status != "ok" {
			t.Errorf("entry %s: %+v", e.Name, e)
		}
	}
	if rep.Entries[0].TimeDeltaPct != 20 {
		t.Errorf("time delta = %v, want 20", rep.Entries[0].TimeDeltaPct)
	}
}

func TestDiffCatchesTimeRegression(t *testing.T) {
	base := parseText(t, benchText)
	rep := diffDocuments(base, withMetrics(t, "14000", "4"), gates, 25) // +27%
	if !rep.Failed {
		t.Fatal("27% time regression passed a 25% gate")
	}
	if e := rep.Entries[0]; e.Status != "regression" || !strings.Contains(e.Detail, "ns/op") {
		t.Errorf("entry: %+v", e)
	}
	// The other gated benchmarks are unchanged and stay ok.
	if rep.Entries[1].Status != "ok" || rep.Entries[2].Status != "ok" {
		t.Errorf("unrelated entries flagged: %+v", rep.Entries[1:])
	}
}

func TestDiffCatchesAllocRegression(t *testing.T) {
	base := parseText(t, benchText)
	// Faster but one extra alloc: still a regression — allocs/op must
	// never grow.
	rep := diffDocuments(base, withMetrics(t, "9000", "5"), gates, 25)
	if !rep.Failed {
		t.Fatal("allocs/op increase passed the gate")
	}
	if e := rep.Entries[0]; e.Status != "regression" || !strings.Contains(e.Detail, "allocs/op") {
		t.Errorf("entry: %+v", e)
	}
}

func TestDiffCatchesMissingBenchmark(t *testing.T) {
	base := parseText(t, benchText)
	fresh := parseText(t, strings.Replace(benchText, "BenchmarkEvaluate", "BenchmarkEvaluateRenamed", 1))
	rep := diffDocuments(base, fresh, gates, 25)
	if !rep.Failed {
		t.Fatal("missing gated benchmark passed the gate")
	}
	if e := rep.Entries[0]; e.Status != "missing" || !strings.Contains(e.Detail, "fresh") {
		t.Errorf("entry: %+v", e)
	}
}

func TestSplitGate(t *testing.T) {
	got := splitGate(" Evaluate, Canonicalize ,,SweepParallel ")
	if len(got) != 3 || got[0] != "Evaluate" || got[1] != "Canonicalize" || got[2] != "SweepParallel" {
		t.Errorf("splitGate = %v", got)
	}
}

// runs renders one benchmark line per (procs, ns/op, allocs/op) triple.
func runs(name string, rs ...[3]float64) string {
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "Benchmark%s-%g\t100\t%g ns/op\t64 B/op\t%g allocs/op\n", name, r[0], r[1], r[2])
	}
	return b.String()
}

func TestIndexCollapsesRepeatedRuns(t *testing.T) {
	cases := []struct {
		name string
		text string
		want summary
	}{
		{"single run", runs("X", [3]float64{2, 100, 5}),
			summary{runs: 1, timeNs: 100, allocs: 5, minTimeNs: 100, maxTimeNs: 100}},
		{"odd count takes the middle", runs("X", [3]float64{2, 300, 5}, [3]float64{2, 100, 5}, [3]float64{2, 200, 5}),
			summary{runs: 3, timeNs: 200, allocs: 5, minTimeNs: 100, maxTimeNs: 300}},
		{"even count averages the middle two", runs("X", [3]float64{2, 100, 4}, [3]float64{2, 400, 6}, [3]float64{2, 200, 4}, [3]float64{2, 1000, 9}),
			summary{runs: 4, timeNs: 300, allocs: 5, minTimeNs: 100, maxTimeNs: 1000}},
		{"allocs take their own median", runs("X", [3]float64{2, 100, 7}, [3]float64{2, 200, 5}, [3]float64{2, 300, 6}),
			summary{runs: 3, timeNs: 200, allocs: 6, minTimeNs: 100, maxTimeNs: 300}},
		{"only the first GOMAXPROCS counts", runs("X", [3]float64{2, 100, 5}, [3]float64{4, 900, 9}, [3]float64{2, 300, 5}, [3]float64{4, 50, 1}),
			summary{runs: 2, timeNs: 200, allocs: 5, minTimeNs: 100, maxTimeNs: 300}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, ok := index(parseText(t, c.text))["X"]
			if !ok || got != c.want {
				t.Errorf("index = %+v, want %+v", got, c.want)
			}
		})
	}
}

func TestDiffGatesOnMedians(t *testing.T) {
	base := parseText(t, runs("Evaluate", [3]float64{2, 1000, 4}, [3]float64{2, 1100, 4}, [3]float64{2, 900, 4}))
	cases := []struct {
		name   string
		fresh  string
		failed bool
	}{
		// One slow run of three no longer decides the gate…
		{"one slow outlier", runs("Evaluate", [3]float64{2, 2000, 4}, [3]float64{2, 1050, 4}, [3]float64{2, 1100, 4}), false},
		// …and one fast run no longer hides a regression.
		{"slow median", runs("Evaluate", [3]float64{2, 900, 4}, [3]float64{2, 1300, 4}, [3]float64{2, 1400, 4}), true},
		{"one run allocates more", runs("Evaluate", [3]float64{2, 1000, 5}, [3]float64{2, 1000, 4}, [3]float64{2, 1000, 4}), false},
		{"most runs allocate more", runs("Evaluate", [3]float64{2, 1000, 5}, [3]float64{2, 1000, 5}, [3]float64{2, 1000, 4}), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep := diffDocuments(base, parseText(t, c.fresh), []string{"Evaluate"}, 25)
			if rep.Failed != c.failed {
				t.Fatalf("failed = %v, want %v: %+v", rep.Failed, c.failed, rep.Entries)
			}
		})
	}
	rep := diffDocuments(base, parseText(t, cases[0].fresh), []string{"Evaluate"}, 25)
	e := rep.Entries[0]
	if e.BaseRuns != 3 || e.FreshRuns != 3 || e.BaseTimeNs != 1000 || e.FreshTimeNs != 1100 ||
		e.BaseTimeMinNs != 900 || e.BaseTimeMaxNs != 1100 || e.FreshTimeMinNs != 1050 || e.FreshTimeMaxNs != 2000 {
		t.Errorf("spread not reported: %+v", e)
	}
}
