package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"github.com/ccnet/ccnet/internal/canon"
	"github.com/ccnet/ccnet/internal/service"
)

// stages are the Server-Timing entries the service and router emit.
// Direct answers account for their time with the service stages; routed
// ones with the router's two, which enclose the replica's.
var (
	serviceStages = []string{"decode", "canon", "cache", "compute", "wait"}
	routerStages  = []string{"rt_route", "rt_upstream"}
)

// perLayer names the metrics a traced run prints on its last line.
var perLayer = func() []string {
	names := []string{
		"scenario.build_us", "canon.hash_raw_us", "core.build_us", "core.eval_us", "core.sweep_us",
	}
	for _, e := range []struct{ name, unit string }{
		{"perfab", "states"}, {"optimize", "candidates"}, {"fleetsim", "states"}, {"sim", "events"},
	} {
		names = append(names, e.name+".run_ms", e.name+"."+e.unit, e.name+".us_per_unit")
	}
	names = append(names,
		"service.miss_us", "service.hit_us",
		"http.replica_added_us", "router.k1_added_us", "router.k3_added_us",
		"ladder.handler_us", "ladder.replica_us", "ladder.k1_us", "ladder.k3_us",
		"ladder.unloaded_p50_ms", "ladder.residual_ms", "ladder.loaded_p50_ms",
		"service.hit_share", "service.coalesced", "service.computes", "cache.evictions",
		"router.retries", "router.unavailable", "service.respell_miss_share", "service.key_mismatch",
	)
	for _, st := range append(append([]string(nil), serviceStages...), routerStages...) {
		names = append(names, "stage."+st+".mean_ms", "stage."+st+".p99_ms")
	}
	return append(names, "trace.unaccounted_share", "trace.overhead_pct", "gen.lag_p99_ms", "gen.max_inflight")
}()

// ladderPrefix is how many of the plan's first requests the ladder
// replays through every rung.
func (w *workload) ladderPrefix() int {
	if w.closed {
		return 40
	}
	return 1000
}

// ladderSeq is the request sequence every rung replays: the plan's first
// requests, then one more canonical request per distinct spec among them,
// so every rung answers both misses and hits.
func ladderSeq(p *Plan, n int) []Req {
	reqs := p.First.Reqs
	if len(reqs) > n {
		reqs = reqs[:n]
	}
	seq := append([]Req(nil), reqs...)
	for _, r := range reqs {
		if r.Fresh {
			sp := &p.Specs[r.Spec]
			seq = append(seq, Req{Kind: sp.kind, Path: r.Path, Body: sp.body(styleCanonical), Spec: r.Spec})
		}
	}
	return seq
}

// rung is one replay of the ladder sequence through one layer stack.
type rung struct {
	name    string
	lat     []float64 // µs, per request of the sequence
	answers []answer
}

func (r *rung) median() float64 { return median(append([]float64(nil), r.lat...)) }

// classMedian is the median latency over requests of the given cache
// class.
func (r *rung) classMedian(class string) (float64, int) {
	var xs []float64
	for i, a := range r.answers {
		if a.class == class {
			xs = append(xs, r.lat[i])
		}
	}
	return median(xs), len(xs)
}

// added is the median over requests answered as hits by both rungs of
// the extra time r took over base.
func (r *rung) added(base *rung) (float64, int) {
	var xs []float64
	for i := range r.lat {
		if r.answers[i].class == "hit" && base.answers[i].class == "hit" {
			xs = append(xs, r.lat[i]-base.lat[i])
		}
	}
	return median(xs), len(xs)
}

// runTraced is the per-layer run: the layer ladder, an unloaded pass
// through the workload's own tier, then the nominal phase twice, with
// tracing off (counters, generator lag) and on (Server-Timing stages).
func runTraced(w *workload, plan *Plan, rep *report) (*checker, error) {
	// The nominal phase runs for half its time, twice (see below).
	nominal := plan.First
	nominal.Dur /= 2
	checkN := checkPrefix
	if nominal.Rate > 0 {
		nominal.Reqs = nominal.Reqs[:dueBy(nominal.Reqs, nominal.Dur)]
		checkN = len(nominal.Reqs)
	}
	ck := newChecker(plan, checkN)
	seq := ladderSeq(plan, w.ladderPrefix())
	if err := computeRung(plan, seq, rep); err != nil {
		return nil, err
	}

	// Serving rungs, each on a fresh tier, replayed serially by one
	// client: the in-process handler, one replica over loopback, and the
	// router in front of one and of three replicas.
	handler := replayHandler(seq)
	var rungs = []*rung{handler}
	for _, k := range []int{0, 1, 3} {
		t, err := startTier(k, false)
		if err != nil {
			return nil, err
		}
		c := newClient()
		if err := waitHealthy(c, t.base); err != nil {
			t.close()
			return nil, err
		}
		name := map[int]string{0: "replica", 1: "k1", 3: "k3"}[k]
		rungs = append(rungs, replay(name, c, t.base, seq))
		c.CloseIdleConnections()
		t.close()
	}
	for _, r := range rungs {
		for i := range seq {
			ck.addAnswer(&seq[i], &r.answers[i])
		}
	}
	replica, k1, k3 := rungs[1], rungs[2], rungs[3]
	miss, nMiss := handler.classMedian("miss")
	hit, nHit := handler.classMedian("hit")
	rep.set("service.miss_us", "us", miss, nMiss)
	rep.set("service.hit_us", "us", hit, nHit)
	v, n := replica.added(handler)
	rep.set("http.replica_added_us", "us", v, n)
	v, n = k1.added(replica)
	rep.set("router.k1_added_us", "us", v, n)
	v, n = k3.added(replica)
	rep.set("router.k3_added_us", "us", v, n)
	for _, r := range rungs {
		rep.set("ladder."+r.name+"_us", "us", r.median(), len(r.lat))
	}
	rep.set("service.key_mismatch", "count", float64(keyMismatches(seq, replica, k3)), 0)
	rep.note("ladder: %d requests (%d distinct specs) replayed serially through each rung", len(seq), countFresh(seq))
	rep.note("  %-8s %10s %10s %10s", "rung", "p50 us", "hit us", "miss us")
	for _, r := range rungs {
		h, _ := r.classMedian("hit")
		m, _ := r.classMedian("miss")
		rep.note("  %-8s %10.1f %10.1f %10.1f", r.name, r.median(), h, m)
	}

	// The unloaded pass replays the sequence through the workload's own
	// tier at a rate low enough that requests do not meet; the residual is
	// what the serial rungs do not account for.
	top := replica
	if w.replicas > 0 {
		top = k3
	}
	unloaded, err := unloadedPass(w, seq, top, ck)
	if err != nil {
		return nil, err
	}
	rep.set("ladder.unloaded_p50_ms", "ms", unloaded, len(seq))
	rep.set("ladder.residual_ms", "ms", unloaded-top.median()/1e3, len(seq))

	// The first half of the first phase with tracing off, then on.
	before := *ck
	off, _, c, err := drive(w, &nominal, false, ck)
	if err != nil {
		return nil, err
	}
	rep.set("ladder.loaded_p50_ms", "ms", median(off.winP50), len(off.lat))
	rep.set("service.hit_share", "ratio", ratio(ck.hits-before.hits, ck.classed-before.classed), ck.classed-before.classed)
	rep.set("service.coalesced", "count", float64(c.coalesced), 0)
	rep.set("service.computes", "count", float64(c.computes), 0)
	rep.set("cache.evictions", "count", float64(c.evictions), 0)
	rep.set("router.retries", "count", c.retries, 0)
	rep.set("router.unavailable", "count", c.unavailable, 0)
	rep.set("service.respell_miss_share", "ratio",
		ratio(ck.respellMisses-before.respellMisses, ck.respelled-before.respelled), ck.respelled-before.respelled)
	rep.set("gen.lag_p99_ms", "ms", quantile(off.lag, 0.99), len(off.lag))
	rep.set("gen.max_inflight", "count", float64(off.maxBacklog), 0)

	on, timings, _, err := drive(w, &nominal, true, ck)
	if err != nil {
		return nil, err
	}
	stageMetrics(rep, timings, w.replicas > 0)
	rep.set("trace.overhead_pct", "%", 100*(median(on.winP50)/median(off.winP50)-1), len(on.lat))
	return ck, nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func countFresh(seq []Req) int {
	n := 0
	for _, r := range seq {
		if r.Fresh {
			n++
		}
	}
	return n
}

// computeRung times the layers below the service on the sequence's
// distinct specs: spec building, the router's raw-body hash, the core
// model (each read spec as both an evaluation and a sweep) and the
// engines.
func computeRung(p *Plan, seq []Req, rep *report) error {
	var build, hash, coreBuild, coreEval, coreSweep []float64
	type engineStats struct {
		runs        []float64
		units       []float64
		total, work float64
	}
	engines := map[string]*engineStats{}
	heavy := map[string][]*spec{}
	for _, r := range seq {
		if !r.Fresh {
			continue
		}
		sp := &p.Specs[r.Spec]
		t0 := time.Now()
		if _, err := canon.Hash(sp.kind, json.RawMessage(r.Body)); err != nil {
			return err
		}
		hash = append(hash, us(time.Since(t0)))
		if sp.kind != kEvaluate && sp.kind != kSweep {
			heavy[sp.kind] = append(heavy[sp.kind], sp)
			continue
		}
		for _, kind := range []string{kEvaluate, kSweep} {
			twin := *sp
			twin.kind = kind
			c, err := compute(&twin, twin.body(styleCanonical))
			if err != nil {
				return err
			}
			build = append(build, us(c.build))
			coreBuild = append(coreBuild, us(c.coreBuild))
			if kind == kEvaluate {
				coreEval = append(coreEval, us(c.coreEval))
			} else {
				coreSweep = append(coreSweep, us(c.coreSweep))
			}
		}
	}
	// A workload without heavy specs of some kind still times that engine,
	// on specs drawn from the same seed.
	for _, kind := range heavyKinds {
		if len(heavy[kind]) == 0 {
			heavy[kind] = heavySample(p.Seed, kind)
		}
		es := &engineStats{}
		engines[kind] = es
		for _, sp := range heavy[kind] {
			c, err := compute(sp, sp.body(styleCanonical))
			if err != nil {
				return fmt.Errorf("%s spec: %w", kind, err)
			}
			build = append(build, us(c.build))
			es.runs = append(es.runs, ms(c.engine))
			es.units = append(es.units, c.units)
			es.total += us(c.engine)
			es.work += c.units
		}
	}
	rep.set("scenario.build_us", "us", median(build), len(build))
	rep.set("canon.hash_raw_us", "us", median(hash), len(hash))
	rep.set("core.build_us", "us", median(coreBuild), len(coreBuild))
	rep.set("core.eval_us", "us", median(coreEval), len(coreEval))
	rep.set("core.sweep_us", "us", median(coreSweep), len(coreSweep))
	for _, e := range []struct{ kind, name, unit string }{
		{kPerfab, "perfab", "states"}, {kOptimize, "optimize", "candidates"},
		{kFleetsim, "fleetsim", "states"}, {kCampaign, "sim", "events"},
	} {
		es := engines[e.kind]
		rep.set(e.name+".run_ms", "ms", median(es.runs), len(es.runs))
		rep.set(e.name+"."+e.unit, "count", median(es.units), len(es.units))
		rep.set(e.name+".us_per_unit", "us", es.total/math.Max(1, es.work), len(es.runs))
	}
	return nil
}

// heavySample draws a few unique specs of one heavy kind from seed.
func heavySample(seed uint64, kind string) []*spec {
	w := &workload{name: "sample-" + kind, mix: []kindWeight{{kind, 1}}, closed: true, closedRate: 4}
	p := newPlan(w, seed, time.Second)
	var out []*spec
	for i := range p.Specs {
		out = append(out, &p.Specs[i])
	}
	return out
}

// replayHandler replays seq through a fresh in-process handler, timing
// ServeHTTP and the reading of its answer.
func replayHandler(seq []Req) *rung {
	h := service.New(service.Options{}).Handler()
	r := &rung{name: "handler"}
	for i := range seq {
		q := &seq[i]
		start := time.Now()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, q.Path, bytes.NewReader(q.Body)))
		a := readAnswer(rec.Result(), start, readOpts{sum: q.Fresh, key: true})
		r.lat = append(r.lat, us(time.Since(start)))
		r.answers = append(r.answers, a)
	}
	return r
}

// replay sends seq serially to base.
func replay(name string, c *http.Client, base string, seq []Req) *rung {
	r := &rung{name: name}
	for i := range seq {
		start := time.Now()
		a := send(c, base, &seq[i], readOpts{sum: seq[i].Fresh, key: true})
		r.lat = append(r.lat, us(time.Since(start)))
		r.answers = append(r.answers, a)
	}
	return r
}

// keyMismatches counts the distinct specs whose envelope key differs
// between the direct and the routed answer.
func keyMismatches(seq []Req, direct, routed *rung) int {
	n := 0
	for i, r := range seq {
		if r.Fresh && direct.answers[i].key != routed.answers[i].key {
			n++
		}
	}
	return n
}

// unloadedPass sends seq through a fresh untraced tier of the workload on
// an evenly spaced schedule, five times the top rung's mean apart, and
// returns the median latency in ms.
func unloadedPass(w *workload, seq []Req, top *rung, ck *checker) (float64, error) {
	gap := time.Duration(5 * mean(top.lat) * 1e3)
	ph := Phase{Name: "unloaded", Rate: float64(time.Second) / float64(gap)}
	for i, r := range seq {
		r.At = time.Duration(i+1) * gap
		ph.Reqs = append(ph.Reqs, r)
	}
	s, _, _, err := drive(w, &ph, false, ck)
	if err != nil {
		return 0, err
	}
	return median(s.lat), nil
}

// timed is one traced answer: its Server-Timing values and the client's
// wall time for it, from the actual send, in ms.
type timed struct {
	timing []string
	wall   float64
}

// drive runs ph on a fresh tier of the workload, traced or not, and
// returns its summary, the Server-Timing values of every answer, and the
// tier's counters afterwards.
func drive(w *workload, ph *Phase, traced bool, ck *checker) (*summary, []timed, counters, error) {
	t, err := startTier(w.replicas, traced)
	if err != nil {
		return nil, nil, counters{}, err
	}
	defer t.close()
	d := newDriver(t.base, senders(), readOpts{timing: traced})
	defer d.close()
	if err := waitHealthy(d.clients[0], t.base); err != nil {
		return nil, nil, counters{}, err
	}
	pr := d.run(ph)
	ck.add(pr)
	c, err := t.readCounters(d.clients[0])
	if err != nil {
		return nil, nil, c, err
	}
	var tt []timed
	for _, s := range pr.samples {
		if s.sent && s.fail == "" {
			tt = append(tt, timed{timing: s.timing, wall: ms(s.lat - s.lag)})
		}
	}
	return summarize(pr, w.limitMs, w.window), tt, c, nil
}

// stageMetrics reports each Server-Timing stage's mean and p99 over the
// answers that carry it, and the share of client wall time no top-level
// stage accounts for.
func stageMetrics(rep *report, tt []timed, routed bool) {
	per := map[string][]float64{}
	top := serviceStages
	if routed {
		top = routerStages
	}
	var wall, accounted float64
	for _, t := range tt {
		st := parseServerTiming(t.timing)
		for name, d := range st {
			per[name] = append(per[name], d)
		}
		wall += t.wall
		for _, name := range top {
			accounted += st[name]
		}
	}
	for _, name := range append(append([]string(nil), serviceStages...), routerStages...) {
		xs := per[name]
		rep.set("stage."+name+".mean_ms", "ms", mean(xs), len(xs))
		rep.set("stage."+name+".p99_ms", "ms", quantile(xs, 0.99), len(xs))
	}
	rep.set("trace.unaccounted_share", "ratio", 1-accounted/math.Max(wall, 1e-9), len(tt))
}

// parseServerTiming sums the dur of each named entry across the header
// values ("decode;dur=0.014, canon;dur=0.026, …").
func parseServerTiming(values []string) map[string]float64 {
	out := map[string]float64{}
	for _, v := range values {
		for _, entry := range strings.Split(v, ",") {
			name, params, _ := strings.Cut(strings.TrimSpace(entry), ";")
			for _, p := range strings.Split(params, ";") {
				if d, ok := strings.CutPrefix(strings.TrimSpace(p), "dur="); ok {
					if f, err := strconv.ParseFloat(d, 64); err == nil {
						out[name] += f
					}
				}
			}
		}
	}
	return out
}
