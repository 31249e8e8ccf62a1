// Benchmarks regenerating every figure and experiment of the paper's
// evaluation section through the scenario campaign runner (the shipped
// campaigns under examples/scenarios), plus microbenchmarks of the
// load-bearing components. BenchmarkPaperScenarios runs reduced message
// counts so `go test -bench=.` stays in tens of seconds; use `ccscen run`
// on the same files for the full paper-scale runs. Tables 1 and 2 are
// static text in README.md, held to the presets by TestTables.
//
// Each campaign sub-benchmark logs the regenerated rows (run with -v to
// see them) and reports the light-load model-vs-simulation error as a
// custom metric where simulation is part of the figure.
package ccnet_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/ccnet/ccnet/internal/canon"
	"github.com/ccnet/ccnet/internal/cluster"
	"github.com/ccnet/ccnet/internal/core"
	"github.com/ccnet/ccnet/internal/des"
	"github.com/ccnet/ccnet/internal/fleetsim"
	"github.com/ccnet/ccnet/internal/metrics"
	"github.com/ccnet/ccnet/internal/netchar"
	"github.com/ccnet/ccnet/internal/optimize"
	"github.com/ccnet/ccnet/internal/perfab"
	"github.com/ccnet/ccnet/internal/reqtrace"
	"github.com/ccnet/ccnet/internal/routing"
	"github.com/ccnet/ccnet/internal/scenario"
	"github.com/ccnet/ccnet/internal/service"
	"github.com/ccnet/ccnet/internal/sim"
	"github.com/ccnet/ccnet/internal/topology"
	"github.com/ccnet/ccnet/internal/wormhole"
)

// paperScenarios lists the shipped campaigns of the paper's evaluation
// section: each validation figure is one file under examples/scenarios,
// each other experiment a directory with one file per curve.
var paperScenarios = []struct{ id, path string }{
	{"fig3", "examples/scenarios/fig3.json"},
	{"fig4", "examples/scenarios/fig4.json"},
	{"fig5", "examples/scenarios/fig5.json"},
	{"fig6", "examples/scenarios/fig6.json"},
	{"fig7", "examples/scenarios/fig7"},
	{"ablation", "examples/scenarios/ablation"},
	{"nonuniform", "examples/scenarios/nonuniform"},
	{"bufferdepth", "examples/scenarios/bufferdepth"},
}

// BenchmarkPaperScenarios regenerates every figure and experiment of the
// paper's evaluation section through the campaign runner at reduced
// message counts (500 warm-up, 4000 measured, seed 1; figure grids
// simulate every fifth point, experiments that simulate every point keep
// doing so). Each sub-benchmark logs its rendered tables and reports the
// light-load model-vs-simulation error where the campaign simulates.
func BenchmarkPaperScenarios(b *testing.B) {
	for _, ps := range paperScenarios {
		b.Run(ps.id, func(b *testing.B) {
			var outs []*scenario.Outcome
			for i := 0; i < b.N; i++ {
				specs, err := scenario.LoadAll([]string{ps.path})
				if err != nil {
					b.Fatal(err)
				}
				for _, s := range specs {
					s.Seed, s.Engines.Warmup, s.Engines.Measure = 1, 500, 4000
					if s.Engines.SimEvery != 1 {
						s.Engines.SimEvery = 5
					}
				}
				outs = (&scenario.Runner{}).Run(specs)
				for _, o := range outs {
					if o.Err != nil {
						b.Fatal(o.Err)
					}
				}
			}
			var buf bytes.Buffer
			for _, o := range outs {
				if err := scenario.Render(&buf, o.Result); err != nil {
					b.Fatal(err)
				}
				if _, sf := scenario.LightLoadError(o.Result, 0.7); !math.IsNaN(sf) {
					b.ReportMetric(sf, "light-load-err-%")
				}
			}
			b.Log("\n" + buf.String())
		})
	}
}

// --- microbenchmarks -----------------------------------------------------

// BenchmarkModelEvaluate1120 measures one full analytical evaluation
// (all 32×31 cluster pairs, deduplicated to the distinct cluster-class
// pairs) of the N=1120 system.
func BenchmarkModelEvaluate1120(b *testing.B) {
	m, err := core.New(cluster.System1120(), netchar.MessageSpec{Flits: 32, FlitBytes: 256}, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Evaluate(3e-4).Saturated {
			b.Fatal("unexpected saturation")
		}
	}
}

// BenchmarkEvaluate is the ISSUE 3 hot-path benchmark: one N=1120
// evaluation with allocation tracking. The seed implementation spent
// ~340 µs and 994 allocs per call (one heap PairResult per ordered
// cluster pair plus stage-chain closures); the class-deduplicated path
// must stay allocation-flat in the pair count.
func BenchmarkEvaluate(b *testing.B) {
	m, err := core.New(cluster.System1120(), netchar.MessageSpec{Flits: 32, FlitBytes: 256}, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Evaluate(3e-4).Saturated {
			b.Fatal("unexpected saturation")
		}
	}
}

// sweepGrid is the shared grid for the serial-versus-parallel sweep
// benchmarks: 64 stable points of the N=1120, M=32, Lm=256 model.
func sweepModel(b *testing.B) (*core.Model, []float64) {
	b.Helper()
	m, err := core.New(cluster.System1120(), netchar.MessageSpec{Flits: 32, FlitBytes: 256}, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return m, core.LambdaGrid(1e-5, 4.5e-4, 64)
}

// BenchmarkSweepSerial is the baseline for BenchmarkSweepParallel: the
// same 64-point grid swept on one goroutine.
func BenchmarkSweepSerial(b *testing.B) {
	m, grid := sweepModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(m.Sweep(grid)) != len(grid) {
			b.Fatal("short sweep")
		}
	}
}

// BenchmarkSweepParallel sweeps the same grid through the worker pool at
// GOMAXPROCS; compare ns/op against BenchmarkSweepSerial for the speedup.
func BenchmarkSweepParallel(b *testing.B) {
	m, grid := sweepModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(m.SweepParallel(grid, 0)) != len(grid) {
			b.Fatal("short sweep")
		}
	}
}

// BenchmarkModelSaturation1120 measures the bisection search.
func BenchmarkModelSaturation1120(b *testing.B) {
	m, err := core.New(cluster.System1120(), netchar.MessageSpec{Flits: 32, FlitBytes: 256}, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.SaturationPoint(0.01, 1e-4) <= 0 {
			b.Fatal("no saturation point")
		}
	}
}

// BenchmarkModelSaturation544 measures the bisection search on the
// N=544 system, whose pair classes carry 36–75 crossing-length cells
// each: the shape of the optimizer's saturation objective.
func BenchmarkModelSaturation544(b *testing.B) {
	m, err := core.New(cluster.System544(), netchar.MessageSpec{Flits: 32, FlitBytes: 256}, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.SaturationPoint(1, 1e-4) <= 0 {
			b.Fatal("no saturation point")
		}
	}
}

// BenchmarkSimulator544 measures simulator throughput (events/s) on the
// N=544 system at moderate load. Every iteration runs the same seed, so
// the work per operation (events/run) does not depend on b.N.
func BenchmarkSimulator544(b *testing.B) {
	var events uint64
	for i := 0; i < b.N; i++ {
		m, err := sim.Run(sim.Config{
			Sys: cluster.System544(), Msg: netchar.MessageSpec{Flits: 32, FlitBytes: 256},
			Lambda: 3e-4, Seed: 1, WarmupCount: 500, MeasureCount: 5000,
		})
		if err != nil {
			b.Fatal(err)
		}
		events += m.Events
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
}

// BenchmarkTopologyConstruction builds the largest tree of the paper's
// systems (m=4, n=5: 64 nodes, 144 switches).
func BenchmarkTopologyConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := topology.New(4, 5)
		if err != nil {
			b.Fatal(err)
		}
		if t.Nodes() != 64 {
			b.Fatal("bad tree")
		}
	}
}

// BenchmarkRouting measures Up*/Down* path construction on an (8,3) tree.
func BenchmarkRouting(b *testing.B) {
	t, err := topology.New(8, 3)
	if err != nil {
		b.Fatal(err)
	}
	n := t.Nodes()
	var path []routing.Hop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := i % n
		dst := (i*31 + 17) % n
		if src == dst {
			dst = (dst + 1) % n
		}
		if path = routing.Route(path[:0], t, src, dst); len(path) == 0 {
			b.Fatal("empty route")
		}
	}
}

// BenchmarkWormholeJourney measures the channel engine: 16 contended
// journeys of 32 flits over one 8-channel path with the paper's
// single-flit buffers, whose schedules take the closed form.
func BenchmarkWormholeJourney(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var k des.Kernel
		e := wormhole.NewEngine(&k)
		chans := make([]*wormhole.Channel, 8)
		for j := range chans {
			chans[j] = e.NewChannel("c", 0.5)
		}
		route := e.NewRoute(chans)
		for m := 0; m < 16; m++ {
			e.Start(&wormhole.Journey{Route: route, Flits: 32}, float64(m))
		}
		k.Run(nil)
		if e.Completed != 16 {
			b.Fatal("journeys lost")
		}
	}
}

// benchKernelHold times the bare event kernel under the hold model:
// pending events wait in the queue, and each one that fires schedules
// one successor an exponentially distributed delay later, so the
// population stays constant. ns/op is the cost of one event: a pop, a
// dispatch and a schedule. The delays are drawn before timing.
func benchKernelHold(b *testing.B, pending int) {
	r := rand.New(rand.NewPCG(1, 2))
	delays := make([]float64, 1<<12)
	for i := range delays {
		delays[i] = r.ExpFloat64()
	}
	var k des.Kernel
	next := 0
	k.SetDispatch(func(int) {
		k.After(delays[next&(len(delays)-1)], 0)
		next++
	})
	for i := 0; i < pending; i++ {
		k.After(delays[i], 0)
	}
	next = pending
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
	if k.Pending() != pending {
		b.Fatalf("%d events pending, want %d", k.Pending(), pending)
	}
}

// BenchmarkKernelHold5 and BenchmarkKernelHold100 hold the kernel at 5
// and 100 pending events: the median populations at a pop of the
// campaign leg (DESCampaign, 3–5) and of N=544 (Simulator544, 74).
func BenchmarkKernelHold5(b *testing.B)   { benchKernelHold(b, 5) }
func BenchmarkKernelHold100(b *testing.B) { benchKernelHold(b, 100) }

// BenchmarkWormholeJourneyDeep is BenchmarkWormholeJourney's other side
// of the engine: 16 journeys of 8 flits over 8 shared channels with
// 4-flit buffers, whose schedules settle in partial bands from the
// second grant on (the frontier fill, not the closed form).
func BenchmarkWormholeJourneyDeep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var k des.Kernel
		e := wormhole.NewEngine(&k)
		chans := make([]*wormhole.Channel, 8)
		for j := range chans {
			chans[j] = e.NewBufferedChannel("c", 0.5, 4)
		}
		route := e.NewRoute(chans)
		for m := 0; m < 16; m++ {
			e.Start(&wormhole.Journey{Route: route, Flits: 8}, float64(m))
		}
		k.Run(nil)
		if e.Completed != 16 {
			b.Fatal("journeys lost")
		}
	}
}

// --- service benchmarks ----------------------------------------------------

// serviceSweepBody is the evaluation-service workload shared by the
// cache benchmarks: the full N=1120, M=32, Lm=256 model over the same
// 64-point grid as BenchmarkSweepParallel, sent through POST /v1/sweep.
const serviceSweepBody = `{
	"system": {"preset": "N=1120"},
	"message": {"flits": 32, "flitBytes": 256},
	"lambda": {"min": 1e-5, "max": 4.5e-4, "points": 64}
}`

// servicePost drives one request through the handler in-process.
func servicePost(b *testing.B, h http.Handler, path, body string) {
	b.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.String())
	}
}

// BenchmarkServiceSweepUncached measures the cold path: every iteration
// hits a fresh server, so the full model construction, saturation search
// and 64-point parallel sweep run each time. Compare ns/op against
// BenchmarkServiceSweepCached for the cache's speedup.
func BenchmarkServiceSweepUncached(b *testing.B) {
	for i := 0; i < b.N; i++ {
		srv := service.New(service.Options{})
		servicePost(b, srv.Handler(), "/v1/sweep", serviceSweepBody)
	}
}

// BenchmarkServiceSweepCached measures the hot path: one server, one
// priming request, then identical requests answered from the
// canonical-spec cache. Reports the observed cache hit rate.
func BenchmarkServiceSweepCached(b *testing.B) {
	srv := service.New(service.Options{})
	h := srv.Handler()
	servicePost(b, h, "/v1/sweep", serviceSweepBody)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		servicePost(b, h, "/v1/sweep", serviceSweepBody)
	}
	b.StopTimer()
	b.ReportMetric(srv.Cache().Stats().HitRate, "hit-rate")
	if got := srv.Computes(); got != 1 {
		b.Fatalf("cached benchmark computed %d times, want 1", got)
	}
}

// BenchmarkServiceCacheSpeedup reports the cached-vs-uncached throughput
// ratio in one benchmark: the uncached cost is sampled on fresh servers
// outside the timer, the timed loop runs cache hits, and speedup-x is
// uncachedNs / cachedNs (the ISSUE 2 acceptance floor is 20).
func BenchmarkServiceCacheSpeedup(b *testing.B) {
	const coldSamples = 3
	var coldTotal time.Duration
	for i := 0; i < coldSamples; i++ {
		srv := service.New(service.Options{})
		start := time.Now()
		servicePost(b, srv.Handler(), "/v1/sweep", serviceSweepBody)
		coldTotal += time.Since(start)
	}
	coldNs := float64(coldTotal.Nanoseconds()) / coldSamples

	srv := service.New(service.Options{})
	h := srv.Handler()
	servicePost(b, h, "/v1/sweep", serviceSweepBody)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		servicePost(b, h, "/v1/sweep", serviceSweepBody)
	}
	hotNs := float64(time.Since(start).Nanoseconds()) / float64(b.N)
	b.ReportMetric(coldNs/hotNs, "speedup-x")
	b.ReportMetric(srv.Cache().Stats().HitRate, "hit-rate")
}

// BenchmarkServiceEvaluateCached measures the smallest hot-path unit:
// repeated identical single-rate evaluations answered from the cache.
func BenchmarkServiceEvaluateCached(b *testing.B) {
	srv := service.New(service.Options{})
	h := srv.Handler()
	body := `{"system": {"preset": "N=1120"}, "message": {"flits": 32, "flitBytes": 256}, "lambda": 3e-4}`
	servicePost(b, h, "/v1/evaluate", body)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		servicePost(b, h, "/v1/evaluate", body)
	}
	b.StopTimer()
	b.ReportMetric(srv.Cache().Stats().HitRate, "hit-rate")
}

// BenchmarkBatch64 drives a cold 64-item evaluate batch through
// POST /v1/batch on a fresh server each iteration: every item validates,
// hashes, computes the N=1120 model and streams one NDJSON line —
// the bulk-evaluation counterpart of BenchmarkEvaluate.
func BenchmarkBatch64(b *testing.B) {
	var sb strings.Builder
	sb.WriteString(`{"items": [`)
	for i, l := range core.LambdaGrid(1e-5, 4.5e-4, 64) {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"kind": "evaluate", "spec": {"system": {"preset": "N=1120"}, "message": {"flits": 32, "flitBytes": 256}, "lambda": %g}}`, l)
	}
	sb.WriteString(`]}`)
	body := sb.String()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv := service.New(service.Options{})
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(body))
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		if n := strings.Count(rec.Body.String(), "\n"); n != 65 { // 64 results + summary
			b.Fatalf("stream had %d lines, want 65", n)
		}
	}
}

// BenchmarkBatch64Cached measures the same batch answered entirely from
// the canonical-spec result cache.
func BenchmarkBatch64Cached(b *testing.B) {
	var sb strings.Builder
	sb.WriteString(`{"items": [`)
	for i, l := range core.LambdaGrid(1e-5, 4.5e-4, 64) {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"kind": "evaluate", "spec": {"system": {"preset": "N=1120"}, "message": {"flits": 32, "flitBytes": 256}, "lambda": %g}}`, l)
	}
	sb.WriteString(`]}`)
	body := sb.String()
	srv := service.New(service.Options{})
	h := srv.Handler()
	prime := httptest.NewRecorder()
	h.ServeHTTP(prime, httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(body)))
	if prime.Code != http.StatusOK {
		b.Fatalf("prime status %d", prime.Code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
	b.StopTimer()
	b.ReportMetric(srv.Cache().Stats().HitRate, "hit-rate")
}

// BenchmarkCanonicalize measures the canonical-JSON pass alone on a
// sweep-sized request — the PR 3 single-pass scanner, gated by the CI
// perf-regression diff against the committed baseline.
func BenchmarkCanonicalize(b *testing.B) {
	req := map[string]any{
		"system":  cluster.System1120(),
		"message": netchar.MessageSpec{Flits: 32, FlitBytes: 256},
		"options": core.Options{},
		"grid":    core.LambdaGrid(1e-5, 4.5e-4, 64),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := canon.Canonicalize(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeGrid runs the design-space engine over a ~1.7k-raw-
// candidate grid (the optimizer's end-to-end hot loop: enumeration,
// canonical dedup, model build, saturation bisection, latency probe,
// frontier maintenance).
func BenchmarkOptimizeGrid(b *testing.B) {
	spec, err := optimize.Parse(strings.NewReader(`{
		"name": "bench-grid",
		"space": {
			"ports": [4],
			"icn2": ["net1", "net2"],
			"icn2Scale": [1, 1.5, 2],
			"groups": [
				{"counts": [0, 4, 8, 16], "treeLevels": [1, 2, 3], "icn1": ["net1", "net2"], "ecn1": ["net2"]},
				{"counts": [0, 4, 8], "treeLevels": [2], "icn1": ["net1", "net2"], "ecn1": ["net2"]}
			]
		},
		"message": {"flits": 32, "flitBytes": 256},
		"constraints": {"cost": {"switchBase": 400, "linkBase": 40, "linkPerBandwidth": 0.1}}
	}`), "bench")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := (&optimize.Engine{}).Run(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Frontier) == 0 {
			b.Fatal("empty frontier")
		}
		if i == 0 {
			b.ReportMetric(float64(rep.Evaluated), "candidates")
		}
	}
}

// BenchmarkCanonHashSweep measures cache-key derivation for a sweep-sized
// request (system + message + options + 64-point grid) — the fixed
// per-request overhead the cache adds to every hit.
func BenchmarkCanonHashSweep(b *testing.B) {
	sys := cluster.System1120()
	msg := netchar.MessageSpec{Flits: 32, FlitBytes: 256}
	opt := core.Options{}
	grid := core.LambdaGrid(1e-5, 4.5e-4, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := canon.Hash("sweep", sys, msg, opt, grid); err != nil {
			b.Fatal(err)
		}
	}
}

// --- metrics benchmarks ----------------------------------------------------

// BenchmarkHistogramObserve measures the instrumentation hot path: one
// latency observation on the 16-bucket default latency histogram — the
// cost the metrics layer adds to every request the service handles.
// Gated by the CI perf-regression diff: the path must stay mutex-free
// (a linear bucket scan plus one atomic add and a CAS sum update),
// tens of nanoseconds, zero allocations.
func BenchmarkHistogramObserve(b *testing.B) {
	r := metrics.NewRegistry()
	h := r.Histogram("bench_latency_seconds", "Bench.", metrics.DefLatencyBuckets)
	// A few distinct values spanning the bucket range, so the bound
	// scan doesn't collapse to one perfectly-predicted branch.
	vals := [4]float64{0.00007, 0.0004, 0.003, 0.08}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(vals[i&3])
	}
	b.StopTimer()
	if h.Count() != uint64(b.N) {
		b.Fatalf("count = %d, want %d", h.Count(), b.N)
	}
}

// BenchmarkSpanRecord measures the tracing layer's always-on overhead:
// one StartSpan/End pair on an UNSAMPLED trace — the cost every
// request pays when the sampler declines it (or tracing is rate-
// limited away). This is the path that must stay Histogram.Observe-
// class: a branch on the trace's sampled flag and nothing else, single-
// digit ns, zero allocations. Gated by the CI perf-regression diff
// against the committed baseline (any allocs/op regression fails).
func BenchmarkSpanRecord(b *testing.B) {
	tr := reqtrace.New(reqtrace.Options{Rate: reqtrace.Disabled, HeadN: -1})
	_, t0 := tr.StartRequest(context.Background(), "bench", "", "req-bench")
	if t0.Sampled() {
		b.Fatal("disabled tracer sampled the request")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := t0.StartSpan("compute")
		sp.End()
	}
}

// BenchmarkSpanRecordSampled measures the recording path the sampled
// fraction pays: mutex-guarded append into the trace's preallocated
// span slab, plus one attribute. A fresh trace is started (and the old
// one exported) every 32 spans to stay under the per-trace cap, so the
// per-op cost amortizes trace start/End the way a traced request does.
func BenchmarkSpanRecordSampled(b *testing.B) {
	tr := reqtrace.New(reqtrace.Options{Rate: 1, SlowThreshold: -1, MaxSpans: 40})
	var t0 *reqtrace.Trace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%32 == 0 {
			t0.End(http.StatusOK, nil)
			_, t0 = tr.StartRequest(context.Background(), "bench", "", "req-bench")
		}
		sp := t0.StartSpan("compute").Attr(reqtrace.String("class", "miss"))
		sp.End()
	}
	b.StopTimer()
	t0.End(http.StatusOK, nil)
	if !t0.Sampled() {
		b.Fatal("rate-1 tracer declined the request")
	}
}

// BenchmarkHistogramVecObserve adds the label-resolution cost on top:
// one With lookup (sync.Map hit) per observation, the exact shape of
// the per-request middleware path.
func BenchmarkHistogramVecObserve(b *testing.B) {
	r := metrics.NewRegistry()
	hv := r.HistogramVec("bench_req_seconds", "Bench.", metrics.DefLatencyBuckets,
		"endpoint", "status", "class")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hv.With("evaluate", "200", "hit").Observe(0.0004)
	}
}

// BenchmarkPerfabStates measures the performability engine's end-to-end
// hot loop: an exact 1377-state availability space over the 4-cluster
// miniature — per state a canonical degraded rebuild (survivor distance
// distributions via topology), a degraded model build and a saturation
// bisection — sharded over the worker pool with ordered absorption.
// Gated by the CI perf-regression diff against the committed baseline.
func BenchmarkPerfabStates(b *testing.B) {
	study := &perfab.Study{
		Name:    "bench-perfab",
		Sys:     cluster.SmallTestSystem(),
		GroupOf: []int{0, 0, 1, 1},
		Msg:     netchar.MessageSpec{Flits: 16, FlitBytes: 128},
		Block: &perfab.Block{
			Nodes: []perfab.NodeFailureSpec{
				{Group: 1, RateSpec: perfab.RateSpec{MTTF: 1500, MTTR: 50, Repairers: 2}},
			},
			Switches: []perfab.SwitchFailureSpec{
				{Group: 1, Network: perfab.NetICN1, Level: 1, RateSpec: perfab.RateSpec{MTTF: 4000, MTTR: 100}},
				{Group: 1, Network: perfab.NetECN1, Level: 1, RateSpec: perfab.RateSpec{MTTF: 3000, MTTR: 100}},
			},
			States: perfab.StatesSpec{MaxExact: 2000},
		},
		Seed: 1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := (&perfab.Engine{}).Run(context.Background(), study)
		if err != nil {
			b.Fatal(err)
		}
		if rep.StatesEvaluated < 1000 {
			b.Fatalf("only %d states", rep.StatesEvaluated)
		}
		if i == 0 {
			b.ReportMetric(float64(rep.StatesEvaluated), "states")
		}
	}
}

// BenchmarkFleetSimEpochs measures the fleet simulator's end-to-end hot
// loop: one seeded stochastic trajectory over the 4-cluster miniature
// (Gillespie failure/repair draws, epoch folding into 1000 epochs), the
// distinct visited states rebuilt and evaluated through the degraded-
// model path with ordered absorption, and the report assembled with its
// long-run aggregates. Gated by the CI perf-regression diff against the
// committed baseline.
func BenchmarkFleetSimEpochs(b *testing.B) {
	study := &fleetsim.Study{
		Perf: &perfab.Study{
			Name:    "bench-fleet",
			Sys:     cluster.SmallTestSystem(),
			GroupOf: []int{0, 0, 1, 1},
			Msg:     netchar.MessageSpec{Flits: 16, FlitBytes: 128},
			Block: &perfab.Block{
				Nodes: []perfab.NodeFailureSpec{
					{Group: 1, RateSpec: perfab.RateSpec{MTTF: 1500, MTTR: 50, Repairers: 2}},
				},
			},
			Seed: 1,
		},
		Block: &fleetsim.Block{Horizon: 100000, Epoch: 100},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := (&fleetsim.Engine{}).Run(context.Background(), study)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Epochs) != 1000 {
			b.Fatalf("%d epochs, want 1000", len(rep.Epochs))
		}
		if i == 0 {
			b.ReportMetric(float64(rep.Transitions), "transitions")
			b.ReportMetric(float64(rep.UniqueStates), "states")
		}
	}
}

// BenchmarkOptimizeNeighbor measures the search engine's neighbor-walk
// hot loop: a beam search over the ~1.7k-candidate grid space, where
// successive candidates differ in one axis by construction and each
// worker's precompute handle serves the distance distributions from
// cache and lends every build its pair-cell slab. Compare candidates/op
// against BenchmarkOptimizeGrid's cold enumeration.
// Gated by the CI perf-regression diff against the committed baseline.
func BenchmarkOptimizeNeighbor(b *testing.B) {
	spec, err := optimize.Parse(strings.NewReader(`{
		"name": "bench-neighbor",
		"seed": 7,
		"space": {
			"ports": [4],
			"icn2": ["net1", "net2"],
			"icn2Scale": [1, 1.5, 2],
			"groups": [
				{"counts": [0, 4, 8, 16], "treeLevels": [1, 2, 3], "icn1": ["net1", "net2"], "ecn1": ["net2"]},
				{"counts": [0, 4, 8], "treeLevels": [2], "icn1": ["net1", "net2"], "ecn1": ["net2"]}
			]
		},
		"message": {"flits": 32, "flitBytes": 256},
		"constraints": {"cost": {"switchBase": 400, "linkBase": 40, "linkPerBandwidth": 0.1}},
		"search": {"method": "beam", "maxCandidates": 1200, "beamWidth": 24}
	}`), "bench")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := (&optimize.Engine{}).Run(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Best == nil {
			b.Fatal("beam found nothing")
		}
		if i == 0 {
			b.ReportMetric(float64(rep.Evaluated), "candidates")
		}
	}
}

// BenchmarkPerfabStateArena isolates the per-state rebuild that
// BenchmarkPerfabStates amortizes over a whole study: one compiled
// Evaluator, a fixed cycle of failure states, each EvalState call
// re-deriving the degraded model through the per-worker arena and
// precompute handle. This is the allocation budget the arena pass
// bounds. Gated by the CI perf-regression diff against the committed
// baseline.
func BenchmarkPerfabStateArena(b *testing.B) {
	study := &perfab.Study{
		Name:    "bench-arena",
		Sys:     cluster.SmallTestSystem(),
		GroupOf: []int{0, 0, 1, 1},
		Msg:     netchar.MessageSpec{Flits: 16, FlitBytes: 128},
		Block: &perfab.Block{
			Nodes: []perfab.NodeFailureSpec{
				{Group: 1, RateSpec: perfab.RateSpec{MTTF: 1500, MTTR: 50, Repairers: 2}},
			},
			Switches: []perfab.SwitchFailureSpec{
				{Group: 1, Network: perfab.NetICN1, Level: 1, RateSpec: perfab.RateSpec{MTTF: 4000, MTTR: 100}},
				{Group: 1, Network: perfab.NetECN1, Level: 1, RateSpec: perfab.RateSpec{MTTF: 3000, MTTR: 100}},
			},
			States: perfab.StatesSpec{MaxExact: 2000},
		},
		Seed: 1,
	}
	ev, err := perfab.NewEvaluator(study)
	if err != nil {
		b.Fatal(err)
	}
	states := [][]int{
		{0, 0, 0},
		{1, 0, 0},
		{2, 0, 0},
		{0, 1, 0},
		{1, 0, 1},
		{3, 1, 1},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := ev.EvalState(states[i%len(states)], 0)
		if !m.Up {
			b.Fatalf("state %v reported down", states[i%len(states)])
		}
	}
}

// BenchmarkDESFig measures the figure pipelines' simulation leg: the
// Fig 5 system (N=544, M=32) driven through the wormhole DES at three
// points of the load curve, the shape every Fig 3–6 regeneration
// repeats per λ. The heap kernel, journey/message pooling and route
// memoization all land here; a median pop finds 27–117 events pending
// (at most 206). Gated by the CI perf-regression diff against the
// committed baseline.
func BenchmarkDESFig(b *testing.B) {
	var events uint64
	for i := 0; i < b.N; i++ {
		for j, lambda := range [...]float64{1e-4, 3e-4, 5e-4} {
			m, err := sim.Run(sim.Config{
				Sys: cluster.System544(), Msg: netchar.MessageSpec{Flits: 32, FlitBytes: 256},
				Lambda: lambda, Seed: uint64(j + 1), WarmupCount: 200, MeasureCount: 2000,
			})
			if err != nil {
				b.Fatal(err)
			}
			events += m.Events
		}
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
}

// BenchmarkDESCampaign measures the simulation leg of a campaign on the
// small preset (M=16 × 128 B, warmup 300, measure 3000), the two
// simulated points of the repository benchmark's DES campaign. Its
// pending population is small (median 3–5 events at a pop), a regime
// neither DESFig nor Simulator544 covers, so per-event kernel overhead
// dominates. Gated by the CI perf-regression diff.
func BenchmarkDESCampaign(b *testing.B) {
	var events uint64
	for i := 0; i < b.N; i++ {
		for j, lambda := range [...]float64{0.001, 0.003} {
			m, err := sim.Run(sim.Config{
				Sys: cluster.SmallTestSystem(), Msg: netchar.MessageSpec{Flits: 16, FlitBytes: 128},
				Lambda: lambda, Seed: uint64(j + 1), WarmupCount: 300, MeasureCount: 3000,
			})
			if err != nil {
				b.Fatal(err)
			}
			events += m.Events
		}
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
}
