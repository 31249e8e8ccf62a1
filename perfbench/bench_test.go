package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestPlanDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a := newPlan(w, 7, 4*time.Second)
		b := newPlan(w, 7, 4*time.Second)
		c := newPlan(w, 8, 4*time.Second)
		if a.SHA != b.SHA {
			t.Errorf("%s: seed 7 gave two plans: %s and %s", w.name, a.SHA, b.SHA)
		}
		if a.SHA == c.SHA {
			t.Errorf("%s: seeds 7 and 8 gave the same plan %s", w.name, a.SHA)
		}
		if a.requests() == 0 {
			t.Errorf("%s: empty plan", w.name)
		}
	}
}

func TestPlanShape(t *testing.T) {
	cold, _ := workloadByName("cold-direct")
	p := newPlan(cold, 3, 2*time.Second)
	seen := map[string]bool{}
	for _, r := range p.First.Reqs {
		if !r.Fresh || seen[string(r.Body)] {
			t.Fatalf("cold-direct repeats a spec: %s", r.Body)
		}
		seen[string(r.Body)] = true
	}

	hot, _ := workloadByName("hot-routed")
	p = newPlan(hot, 3, 4*time.Second)
	repeats, respelled := 0, 0
	for _, r := range append(append([]Req(nil), p.First.Reqs...), p.Search...) {
		if r.Kind != kEvaluate && r.Kind != kSweep {
			t.Fatalf("hot-routed sends %s", r.Kind)
		}
		if !r.Fresh {
			repeats++
		}
		if r.Respelled {
			respelled++
		}
	}
	if n := len(p.Specs); n > hot.pool {
		t.Errorf("hot-routed has %d distinct specs, more than its pool of %d", n, hot.pool)
	}
	if repeats == 0 || respelled == 0 {
		t.Errorf("hot-routed: %d repeats, %d re-spelled", repeats, respelled)
	}
}

// Every spelling of a read spec must mean the same request: the service
// decodes them all to the same values.
func TestRespellingsDecodeAlike(t *testing.T) {
	hot, _ := workloadByName("hot-routed")
	p := newPlan(hot, 5, 2*time.Second)
	for i := range p.Specs[:20] {
		sp := &p.Specs[i]
		want, err := compute(sp, sp.body(styleCanonical))
		if err != nil {
			t.Fatal(err)
		}
		for style := 1; style < numStyles; style++ {
			got, err := compute(sp, sp.body(style))
			if err != nil {
				t.Fatalf("style %d: %v", style, err)
			}
			if string(got.result) != string(want.result) {
				t.Errorf("spec %d style %d: %s differs", i, style, sp.body(style))
			}
		}
	}
}

// fakeServer answers every POST with the response its handler gives for
// the request path.
func fakeServer(t *testing.T, routes map[string]http.HandlerFunc) string {
	mux := http.NewServeMux()
	for path, h := range routes {
		mux.HandleFunc(path, h)
	}
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv.URL
}

func envelope(result string) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"cached":false,"key":"v1:abc","result":%s}`+"\n", result)
	}
}

func stream(lines ...string) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		for _, l := range lines {
			fmt.Fprintln(w, l)
		}
	}
}

func TestCheckerCatchesWrongAnswers(t *testing.T) {
	base := fakeServer(t, map[string]http.HandlerFunc{
		"/good":    envelope(`{"meanLatency":12.5}`),
		"/flipped": envelope(`{"meanLatency":12.6}`),
		"/status": func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, `{"code":"internal"}`, http.StatusInternalServerError)
		},
		"/stream-ok": stream(`{"kind":"progress","done":1}`,
			`{"kind":"result","cached":false,"key":"v1:abc","result":{"meanLatency":12.5}}`),
		"/stream-no-result": stream(`{"kind":"progress","done":1}`, `{"kind":"progress","done":2}`),
		"/stream-error": stream(`{"kind":"progress","done":1}`,
			`{"kind":"error","error":{"code":"internal","message":"boom"}}`),
	})
	c := newClient()
	defer c.CloseIdleConnections()
	p := &Plan{Specs: []spec{{kind: kEvaluate}}}

	for _, tc := range []struct {
		path string
		fail string // expected failure, empty for a correct answer
	}{
		{"/good", ""},
		{"/stream-ok", ""},
		{"/flipped", "result differs from the spec's first answer"},
		{"/status", "status 500"},
		{"/stream-no-result", errNoResult.Error()},
		{"/stream-error", errErrorFrame.Error()},
	} {
		ck := newChecker(p, 0)
		first := &Req{Path: "/good", Fresh: true}
		a := send(c, base, first, readOpts{sum: true})
		ck.addAnswer(first, &a)
		r := &Req{Path: tc.path}
		a = send(c, base, r, readOpts{})
		ck.addAnswer(r, &a)
		switch {
		case tc.fail == "" && ck.failed != 0:
			t.Errorf("%s: a correct answer failed: %v", tc.path, ck.reasons)
		case tc.fail != "" && ck.reasons[tc.fail] != 1:
			t.Errorf("%s: want failure %q, got %v", tc.path, tc.fail, ck.reasons)
		}
	}
}

func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(endToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, at most 16 allowed", len(endToEnd))
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(perLayer))
	}
	seen := map[string]bool{}
	for _, n := range append(append([]string(nil), endToEnd...), perLayer...) {
		if !valid.MatchString(n) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", n)
		}
		if seen[n] {
			t.Errorf("metric name %q used twice", n)
		}
		seen[n] = true
	}
}

// BENCHMARK.json at the repository root must name exactly the workloads
// and metrics the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		sort.Strings(out)
		return strings.Join(out, " ")
	}
	sorted := func(xs []string) string {
		out := append([]string(nil), xs...)
		sort.Strings(out)
		return strings.Join(out, " ")
	}
	var wl []string
	for _, w := range workloads {
		wl = append(wl, w.name)
	}
	if got, want := names(cfg.Workloads), sorted(wl); got != want {
		t.Errorf("workloads: BENCHMARK.json has %q, the benchmark %q", got, want)
	}
	if got, want := names(cfg.EndToEnd), sorted(endToEnd); got != want {
		t.Errorf("end_to_end: BENCHMARK.json has %q, the benchmark %q", got, want)
	}
	if got, want := names(cfg.PerLayer), sorted(perLayer); got != want {
		t.Errorf("per_layer: BENCHMARK.json has %q, the benchmark %q", got, want)
	}
}

func TestServerTimingParse(t *testing.T) {
	got := parseServerTiming([]string{
		"decode;dur=0.014, canon;dur=0.026, cache;dur=0.002, compute;dur=3.612, total;dur=3.701",
		"rt_route;dur=0.051, rt_upstream;dur=3.899",
	})
	want := map[string]float64{"decode": 0.014, "canon": 0.026, "cache": 0.002, "compute": 3.612,
		"total": 3.701, "rt_route": 0.051, "rt_upstream": 3.899}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: got %v, want %v", k, got[k], v)
		}
	}
}
