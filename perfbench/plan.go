package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"time"
)

// Request kinds, named after the endpoint they post to.
const (
	kEvaluate = "evaluate"
	kSweep    = "sweep"
	kPerfab   = "performability"
	kOptimize = "optimize"
	kFleetsim = "fleetsim"
	kCampaign = "campaign"
)

// heavyKinds are the streaming or engine-backed kinds; every heavy spec in
// a plan is unique.
var heavyKinds = []string{kPerfab, kOptimize, kFleetsim, kCampaign}

// paperSystem is one system a read spec can name, with its two spellings:
// preset (empty when the system has no preset) and explicit.
type paperSystem struct {
	preset   string
	explicit string
	// satBase is a rate near the model's saturation point for a 32-flit,
	// 256-byte message; read specs draw their rates below it.
	satBase float64
}

var paperSystems = []paperSystem{
	{`{"preset":"N=1120"}`, `{"ports":8,"clusters":[{"count":12,"treeLevels":1},{"count":16,"treeLevels":2},{"count":4,"treeLevels":3}]}`, 4.5e-4},
	{`{"preset":"N=544"}`, `{"ports":4,"clusters":[{"count":8,"treeLevels":3},{"count":3,"treeLevels":4},{"count":5,"treeLevels":5}]}`, 1.5e-4},
	{"", `{"ports":4,"icn2":"net1","clusters":[{"count":4,"treeLevels":3},{"count":2,"treeLevels":4,"icn1":{"bandwidth":1000,"networkLatency":0.008,"switchLatency":0.015},"ecn1":{"bandwidth":500,"networkLatency":0.03,"switchLatency":0.01}},{"count":2,"treeLevels":2,"icn1":"net2","ecn1":"net2"}]}`, 6e-4},
	{"", `{"ports":8,"icn2":"net2","clusters":[{"count":4,"treeLevels":1},{"count":2,"treeLevels":2,"icn1":"net2"},{"count":2,"treeLevels":2}]}`, 6e-4},
}

// sweepPoints is the grid size of every sweep spec.
const sweepPoints = 64

// spec is one distinct request the plan can send: an analytical read
// (evaluate or sweep) or a heavy engine spec. Two requests with the same
// spec mean the same computation, however they are spelled.
type spec struct {
	kind string
	// Reads: system index, message geometry and the rate (evaluate) or the
	// grid maximum (sweep).
	sys       int
	flits     int
	flitBytes int
	lambda    float64
	// Heavy specs: template index and the value that makes the spec unique
	// without changing its work size (a seed or a probe rate).
	variant int
	seed    uint64
	probe   float64
}

// Spelling styles of a read spec. Style 0 is the canonical spelling every
// spec is first sent with; the others mean the same request.
const (
	styleCanonical = iota
	styleKeyOrder
	styleNumber
	styleSystem
	numStyles
)

// body renders sp in the given spelling.
func (sp *spec) body(style int) []byte {
	switch sp.kind {
	case kEvaluate, kSweep:
		return sp.readBody(style)
	case kPerfab:
		return fmt.Appendf(nil, perfabTemplates[sp.variant], sp.seed)
	case kOptimize:
		if sp.variant == 0 {
			return fmt.Appendf(nil, optimizeTemplates[0], num(sp.probe, styleCanonical))
		}
		return fmt.Appendf(nil, optimizeTemplates[sp.variant], sp.seed)
	case kFleetsim:
		if sp.variant == 0 {
			return fmt.Appendf(nil, fleetsimTemplates[0], sp.seed)
		}
		return fmt.Appendf(nil, fleetsimTemplates[sp.variant], num(sp.probe, styleCanonical))
	case kCampaign:
		return fmt.Appendf(nil, campaignTemplate, sp.seed)
	}
	panic("perfbench: unknown kind " + sp.kind)
}

func (sp *spec) readBody(style int) []byte {
	ps := paperSystems[sp.sys]
	sys := ps.explicit
	if ps.preset != "" {
		sys = ps.preset
		if style == styleSystem {
			sys = ps.explicit
		}
	}
	lam := num(sp.lambda, style)
	var rate string
	if sp.kind == kEvaluate {
		rate = lam
	} else if style == styleKeyOrder {
		rate = fmt.Sprintf(`{"points":%d,"max":%s}`, sweepPoints, lam)
	} else {
		rate = fmt.Sprintf(`{"max":%s,"points":%d}`, lam, sweepPoints)
	}
	if style == styleKeyOrder {
		return fmt.Appendf(nil, `{"lambda":%s,"message":{"flitBytes":%d,"flits":%d},"system":%s}`,
			rate, sp.flitBytes, sp.flits, sys)
	}
	return fmt.Appendf(nil, `{"system":%s,"message":{"flits":%d,"flitBytes":%d},"lambda":%s}`,
		sys, sp.flits, sp.flitBytes, rate)
}

// num spells a rate: shortest decimal form canonically, exponent form in
// the number style.
func num(v float64, style int) string {
	if style == styleNumber {
		return strconv.FormatFloat(v, 'E', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Heavy spec templates. Each is a shipped example cut to a size a request
// mix can afford; the %v slot takes the unique seed or probe rate.
var perfabTemplates = []string{
	`{"name":"pb-hetero","seed":%d,"system":{"ports":4,"icn2":"net1","clusters":[{"count":4,"treeLevels":2},{"count":2,"treeLevels":3},{"count":2,"treeLevels":2,"icn1":"net2","ecn1":"net2"}]},"traffic":{"flits":32,"flitBytes":[256],"lambda":{"max":0.01,"points":8}},"performability":{"nodes":[{"group":0,"mttf":2000,"mttr":48,"repairers":2},{"group":1,"mttf":20000,"mttr":24},{"group":2,"mttf":6000,"mttr":48}],"switches":[{"group":2,"network":"icn1","level":1,"mttf":8000,"mttr":72}],"icn2Switches":[{"level":1,"mttf":40000,"mttr":96}],"probe":{"fraction":0.5},"slo":{"minServedFraction":0.9},"percentiles":[0.5,0.9,0.99],"states":{"maxExact":64,"samples":160}}}`,
	`{"name":"pb-icn2","seed":%d,"system":{"preset":"N=544","icn2BandwidthScale":1.2},"traffic":{"flits":64,"flitBytes":[256],"lambda":{"max":0.001,"points":8}},"performability":{"nodes":[{"group":0,"mttf":8000,"mttr":48},{"group":1,"mttf":8000,"mttr":48},{"group":2,"mttf":8000,"mttr":48}],"icn2Switches":[{"level":0,"mttf":30000,"mttr":96},{"level":2,"mttf":30000,"mttr":96}],"icn2Links":{"mttf":60000,"mttr":24},"probe":{"fraction":0.6},"slo":{"maxLatency":150,"minServedFraction":0.85},"percentiles":[0.5,0.9,0.99],"states":{"samples":40}}}`,
}

var optimizeTemplates = []string{
	`{"kind":"optimize","name":"opt-icn2","space":{"ports":[4],"icn2":["net1","net2"],"icn2Scale":[1,1.1,1.2,1.5,2,3],"groups":[{"counts":[8],"treeLevels":[3]},{"counts":[3],"treeLevels":[4]},{"counts":[5],"treeLevels":[5]}]},"message":{"flits":128,"flitBytes":256},"constraints":{"lambda":%s,"cost":{"switchBase":400,"switchPerBandwidth":1,"linkBase":40,"linkPerBandwidth":0.1}},"objective":"maxSaturation"}`,
	`{"kind":"optimize","name":"opt-beam","seed":%d,"space":{"ports":[4],"icn2":["net1","net2"],"icn2Scale":[1,1.2,1.5,2,3],"groups":[{"counts":[0,2,4,6,8,10,12,14,16],"treeLevels":[2,3,4],"icn1":["net1","net2"],"ecn1":["net1","net2"]},{"counts":[0,2,4,6,8,10,12,14,16],"treeLevels":[2,3],"icn1":["net1","net2"],"ecn1":["net2"]}]},"message":{"flits":32,"flitBytes":256},"constraints":{"minNodes":64,"maxNodes":1200,"cost":{"switchBase":400,"switchPerBandwidth":1,"linkBase":40,"linkPerBandwidth":0.1},"maxCost":600000},"objective":"maxSaturation","search":{"method":"beam","maxCandidates":400,"beamWidth":8,"rounds":8}}`,
}

var fleetsimTemplates = []string{
	`{"kind":"fleetsim","name":"fs-crews","seed":%d,"system":{"preset":"small"},"traffic":{"flits":16,"flitBytes":[128],"lambda":{"max":0.01,"points":4}},"performability":{"nodes":[{"group":0,"mttf":800,"mttr":60,"repairers":1},{"group":1,"mttf":2500,"mttr":90,"repairers":1}],"probe":{"fraction":0.5}},"fleetsim":{"horizon":20000,"epoch":500}}`,
	`{"kind":"fleetsim","name":"fs-cascade","seed":42,"system":{"preset":"N=1120"},"traffic":{"flits":32,"flitBytes":[256],"lambda":{"min":4.75e-5,"max":4.75e-4,"points":8}},"performability":{"nodes":[{"group":0,"mttf":9000,"mttr":60,"repairers":4},{"group":1,"mttf":9000,"mttr":60,"repairers":8},{"group":2,"mttf":9000,"mttr":60,"repairers":8}],"icn2Switches":[{"level":1,"mttf":50000,"mttr":120}],"probe":{"lambda":%s},"slo":{"minServedFraction":0.5}},"fleetsim":{"horizon":1200,"epoch":60,"stochastic":false,"timeline":[{"at":120,"action":"inject_failure","class":"nodes[g1]","count":128},{"at":180,"action":"inject_failure","class":"nodes[g2]","count":256},{"at":210,"action":"inject_failure","class":"icn2Switches[L1]","count":1},{"at":420,"action":"repair","class":"icn2Switches[L1]","count":1},{"at":480,"action":"repair","class":"nodes[g2]","count":256},{"at":540,"action":"repair","class":"nodes[g1]","count":128}]}}`,
}

// campaignTemplate is the DES leg: an analysis+simulation campaign on the
// 4-cluster miniature at reduced message counts.
const campaignTemplate = `{"name":"des-small","seed":%d,"system":{"preset":"small"},"traffic":{"flits":16,"flitBytes":[128],"lambda":{"max":0.004,"points":4}},"engines":{"simulation":true,"simEvery":2,"warmup":300,"measure":3000}}`

// Req is one planned request.
type Req struct {
	Kind string
	Path string
	Body []byte
	// Spec indexes Plan.Specs; Fresh marks the spec's first request in
	// the plan and Respelled a repeat sent in a non-canonical spelling.
	Spec      int
	Fresh     bool
	Respelled bool
	// At is the scheduled send time from the start of the phase (open
	// loop only).
	At time.Duration
}

// Phase is one stretch of a run: the nominal-rate measurement or one rate
// step of the capacity search (open loop), or the closed-loop request
// sequence.
type Phase struct {
	Name string
	Rate float64 // offered rate, req/s; 0 for closed loop
	Dur  time.Duration
	Reqs []Req
}

// Plan is every request a run may send, generated before any timing.
type Plan struct {
	Workload string
	Seed     uint64
	Specs    []spec
	// First is the nominal-rate phase (open loop) or the closed loop.
	First Phase
	// Search is the request stream of the capacity search, on a unit-rate
	// Poisson schedule: a probe at r req/s sends its next requests with
	// their At divided by r. Probe is how long each probe runs.
	Search []Req
	Probe  time.Duration
	// SHA fingerprints the plan: the first phase's rate and every
	// request's schedule, path and body.
	SHA string
}

// generator draws a workload's request stream from one seeded source.
type generator struct {
	w      *workload
	rnd    *rand.Rand
	plan   *Plan
	seen   map[string][]int // read kind -> spec indices sent so far
	pooled map[string]int   // read kind -> fresh specs drawn so far
	bodies map[string]bool  // canonical bodies of the read specs drawn
	serial uint64           // uniqueness counter for heavy specs
	// spelled shares one body slice among the requests that repeat a
	// spec in the same spelling.
	spelled map[[2]int][]byte
}

// newPlan generates the plan of workload w for seed and a run of the
// given measuring time.
func newPlan(w *workload, seed uint64, run time.Duration) *Plan {
	g := &generator{
		w:       w,
		rnd:     rand.New(rand.NewPCG(seed, hashString(w.name))),
		plan:    &Plan{Workload: w.name, Seed: seed},
		seen:    map[string][]int{},
		pooled:  map[string]int{},
		bodies:  map[string]bool{},
		spelled: map[[2]int][]byte{},
	}
	p := g.plan
	p.First, p.Probe = w.measure(run)
	if p.First.Rate == 0 {
		n := int(w.closedRate * p.First.Dur.Seconds())
		for i := 0; i < n; i++ {
			p.First.Reqs = append(p.First.Reqs, g.next())
		}
	} else {
		p.First.Reqs = g.poisson(p.First.Rate, p.First.Dur, -1)
	}
	p.Search = g.poisson(1, 0, w.searchLen(p.Probe))
	p.SHA = p.fingerprint()
	return p
}

// poisson draws requests at Poisson arrival times of the given rate: for
// dur, or n of them when n >= 0.
func (g *generator) poisson(rate float64, dur time.Duration, n int) []Req {
	var out []Req
	for at := time.Duration(0); n < 0 || len(out) < n; {
		at += time.Duration(g.rnd.ExpFloat64() / rate * float64(time.Second))
		if n < 0 && at >= dur {
			break
		}
		r := g.next()
		r.At = at
		out = append(out, r)
	}
	return out
}

// probe is the search phase at rate, taking its requests from the search
// stream starting at from; it returns where the next probe starts.
func (p *Plan) probe(rate float64, from int) (Phase, int) {
	ph := Phase{Name: fmt.Sprintf("%.0f/s", rate), Rate: rate, Dur: p.Probe}
	if from >= len(p.Search) {
		return ph, from
	}
	base := p.Search[from].At
	i := from
	for ; i < len(p.Search); i++ {
		r := p.Search[i]
		r.At = time.Duration(float64(r.At-base) / rate)
		if r.At >= p.Probe {
			break
		}
		ph.Reqs = append(ph.Reqs, r)
	}
	return ph, i
}

// next draws one request: a kind from the workload mix, then either a
// repeat of an earlier read spec (possibly re-spelled) or a fresh spec.
func (g *generator) next() Req {
	kind := g.w.pick(g.rnd)
	if kind == kEvaluate || kind == kSweep {
		seen := g.seen[kind]
		poolFull := g.w.pool > 0 && g.pooled[kind] >= g.w.poolOf(kind)
		if len(seen) > 0 && (poolFull || g.rnd.Float64() < g.w.repeat) {
			id := seen[g.rnd.IntN(len(seen))]
			style := styleCanonical
			if g.rnd.Float64() < g.w.respell {
				style = 1 + g.rnd.IntN(numStyles-1)
			}
			return g.req(id, style, false)
		}
		g.pooled[kind]++
		id := g.add(g.readSpec(kind))
		g.seen[kind] = append(g.seen[kind], id)
		return g.req(id, styleCanonical, true)
	}
	return g.req(g.add(g.heavySpec(kind)), styleCanonical, true)
}

func (g *generator) add(sp spec) int {
	g.plan.Specs = append(g.plan.Specs, sp)
	return len(g.plan.Specs) - 1
}

func (g *generator) req(id, style int, fresh bool) Req {
	sp := &g.plan.Specs[id]
	body, ok := g.spelled[[2]int{id, style}]
	if !ok {
		body = sp.body(style)
		g.spelled[[2]int{id, style}] = body
	}
	return Req{
		Kind:      sp.kind,
		Path:      "/v1/" + sp.kind,
		Body:      body,
		Spec:      id,
		Fresh:     fresh,
		Respelled: style != styleCanonical,
	}
}

// readSpec draws an evaluate or sweep spec on a paper-scale system, unlike
// every read spec drawn before.
func (g *generator) readSpec(kind string) spec {
	for {
		sp := g.drawRead(kind)
		if b := string(sp.body(styleCanonical)); !g.bodies[b] {
			g.bodies[b] = true
			return sp
		}
	}
}

func (g *generator) drawRead(kind string) spec {
	sp := spec{
		kind:      kind,
		sys:       g.rnd.IntN(len(paperSystems)),
		flits:     []int{32, 64}[g.rnd.IntN(2)],
		flitBytes: []int{256, 512}[g.rnd.IntN(2)],
	}
	sat := paperSystems[sp.sys].satBase * 32 / float64(sp.flits) * 256 / float64(sp.flitBytes)
	sp.lambda = round3(sat * (0.1 + 0.8*g.rnd.Float64()))
	return sp
}

// heavySpec draws a unique heavy spec: the template is seeded, and the
// varying field (seed or probe rate) comes from a serial counter so no two
// specs of a plan coincide.
func (g *generator) heavySpec(kind string) spec {
	g.serial++
	sp := spec{kind: kind, seed: g.rnd.Uint64()>>40<<20 | g.serial}
	variants := func(n int) int {
		if g.w.lightHeavy {
			return 1
		}
		return n
	}
	switch kind {
	case kPerfab:
		sp.variant = g.rnd.IntN(variants(len(perfabTemplates)))
	case kOptimize:
		sp.variant = g.rnd.IntN(variants(len(optimizeTemplates)))
		sp.probe = 1e-4 + float64(sp.seed%(1<<30))*1e-15
	case kFleetsim:
		sp.variant = g.rnd.IntN(variants(len(fleetsimTemplates)))
		sp.probe = 1.2e-4 + float64(sp.seed%(1<<30))*1e-15
	}
	return sp
}

// round3 keeps three significant digits, so rates have short spellings.
func round3(v float64) float64 {
	e := math.Pow(10, math.Floor(math.Log10(v))-2)
	return math.Round(v/e) * e
}

func (p *Plan) fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s %d %s %g %d %d\n", p.Workload, p.Seed, p.First.Name, p.First.Rate, p.First.Dur, p.Probe)
	for _, reqs := range [][]Req{p.First.Reqs, p.Search} {
		for _, r := range reqs {
			fmt.Fprintf(h, "%d %s\n%s\n", r.At, r.Path, r.Body)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashString is FNV-1a, used to separate the workloads' random streams.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
