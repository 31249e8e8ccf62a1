package perfab

import (
	"context"
	"encoding/json"
	"math"
	"runtime"
	"testing"

	"github.com/ccnet/ccnet/internal/cluster"
	"github.com/ccnet/ccnet/internal/core"
	"github.com/ccnet/ccnet/internal/netchar"
)

// smallStudy builds a study over the 4-cluster miniature (groups: two
// n=1 clusters, two n=2 clusters; single-switch ICN2 tree).
func smallStudy(block *Block) *Study {
	return &Study{
		Name:    "test",
		Sys:     cluster.SmallTestSystem(),
		GroupOf: []int{0, 0, 1, 1},
		Msg:     netchar.MessageSpec{Flits: 16, FlitBytes: 128},
		Block:   block,
		Seed:    1,
	}
}

// --- birth–death steady state ---------------------------------------------

// TestBirthDeathMatchesBinomial: with unbounded repair every component
// is an independent two-state chain, so the failed count is binomial
// with p = MTTR/(MTTF+MTTR).
func TestBirthDeathMatchesBinomial(t *testing.T) {
	const c = 12
	mttf, mttr := 900.0, 100.0
	p := mttr / (mttf + mttr)
	dist := birthDeathDist(c, mttf, mttr, 0)
	sum := 0.0
	for j := 0; j <= c; j++ {
		want := float64(binom(c, j)) * math.Pow(p, float64(j)) * math.Pow(1-p, float64(c-j))
		if math.Abs(dist[j]-want) > 1e-12 {
			t.Errorf("π_%d = %v, want binomial %v", j, dist[j], want)
		}
		sum += dist[j]
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("distribution sums to %v", sum)
	}
}

func binom(n, k int) float64 {
	out := 1.0
	for i := 0; i < k; i++ {
		out *= float64(n-i) / float64(i+1)
	}
	return out
}

// TestBirthDeathRepairCrewShiftsMass: a single shared repair crew must
// leave strictly more steady-state mass in the failed states than
// independent repair.
func TestBirthDeathRepairCrewShiftsMass(t *testing.T) {
	free := birthDeathDist(8, 1000, 100, 0)
	crew := birthDeathDist(8, 1000, 100, 1)
	if !(crew[0] < free[0]) {
		t.Errorf("shared crew π_0=%v not below independent %v", crew[0], free[0])
	}
	if !(distMean(crew) > distMean(free)) {
		t.Errorf("shared crew mean %v not above independent %v", distMean(crew), distMean(free))
	}
}

// TestBirthDeathLargeClassStable: a full node population's distribution
// must stay normalized (the log-space accumulation's reason to exist).
func TestBirthDeathLargeClassStable(t *testing.T) {
	dist := birthDeathDist(1120, 5000, 24, 0)
	sum := 0.0
	for _, w := range dist {
		if math.IsNaN(w) || w < 0 {
			t.Fatalf("invalid mass %v", w)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("distribution sums to %v", sum)
	}
	// Mean failed ≈ c·MTTR/(MTTF+MTTR).
	want := 1120 * 24.0 / 5024.0
	if math.Abs(distMean(dist)-want) > 1e-6*want {
		t.Errorf("mean failed %v, want %v", distMean(dist), want)
	}
}

// --- state space -----------------------------------------------------------

// TestEnumerateCoversSpace: the exact enumeration's weights are the
// product-form probabilities and sum to one.
func TestEnumerateCoversSpace(t *testing.T) {
	classes := []compClass{
		{count: 3, dist: birthDeathDist(3, 100, 10, 0)},
		{count: 2, dist: birthDeathDist(2, 50, 25, 1)},
	}
	states := enumerateStates(classes)
	if len(states) != 4*3 {
		t.Fatalf("%d states, want 12", len(states))
	}
	sum := 0.0
	for _, s := range states {
		sum += s.weight
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("weights sum to %v", sum)
	}
}

// TestSampleStatesDeterministic: identical (classes, samples, seed) give
// identical sequences; a different seed gives a different pairing.
func TestSampleStatesDeterministic(t *testing.T) {
	classes := []compClass{
		{count: 30, dist: birthDeathDist(30, 100, 20, 0)},
		{count: 40, dist: birthDeathDist(40, 80, 30, 0)},
	}
	a := sampleStates(classes, 512, 7)
	b := sampleStates(classes, 512, 7)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].weight != b[i].weight || a[i].failed[0] != b[i].failed[0] || a[i].failed[1] != b[i].failed[1] {
			t.Fatalf("state %d differs between identical runs", i)
		}
	}
	total := 0.0
	for _, s := range a {
		total += s.weight
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("sample weights sum to %v", total)
	}
}

// TestSpreadIdx: balanced placements are distinct, in range and ordered.
func TestSpreadIdx(t *testing.T) {
	for _, tc := range [][2]int{{1, 4}, {3, 8}, {8, 8}, {5, 17}} {
		idx := spreadIdx(tc[0], tc[1])
		for i, v := range idx {
			if v < 0 || v >= tc[1] {
				t.Fatalf("spread(%d,%d)[%d] = %d out of range", tc[0], tc[1], i, v)
			}
			if i > 0 && v <= idx[i-1] {
				t.Fatalf("spread(%d,%d) not strictly ascending: %v", tc[0], tc[1], idx)
			}
		}
	}
}

// --- engine ----------------------------------------------------------------

// nearIntactBlock fails nodes of both groups at tiny rates: the system
// should be available essentially always, with expected metrics pinned
// near nominal.
func nearIntactBlock() *Block {
	return &Block{
		Nodes: []NodeFailureSpec{
			{Group: 0, RateSpec: RateSpec{MTTF: 1e9, MTTR: 1}},
			{Group: 1, RateSpec: RateSpec{MTTF: 1e9, MTTR: 1}},
		},
	}
}

func TestEngineNearIntact(t *testing.T) {
	rep, err := (&Engine{}).Run(context.Background(), smallStudy(nearIntactBlock()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Method != MethodExact {
		t.Fatalf("method %q, want exact (space %v)", rep.Method, rep.StateSpace)
	}
	if rep.Availability < 1-1e-6 {
		t.Errorf("availability %v, want ~1", rep.Availability)
	}
	if math.Abs(rep.ExpectedLatency-rep.Nominal.Latency) > 1e-6*rep.Nominal.Latency {
		t.Errorf("expected latency %v far from nominal %v", rep.ExpectedLatency, rep.Nominal.Latency)
	}
	if math.Abs(rep.ExpectedCapacity-rep.Nominal.Capacity) > 1e-6*rep.Nominal.Capacity {
		t.Errorf("expected capacity %v far from nominal %v", rep.ExpectedCapacity, rep.Nominal.Capacity)
	}
}

// failureBlock is a realistic mixed block over the miniature: node,
// switch and ICN2 failures.
func failureBlock() *Block {
	return &Block{
		Nodes: []NodeFailureSpec{
			{Group: 0, RateSpec: RateSpec{MTTF: 2000, MTTR: 50}},
			{Group: 1, RateSpec: RateSpec{MTTF: 1500, MTTR: 50, Repairers: 2}},
		},
		Switches: []SwitchFailureSpec{
			{Group: 1, Network: NetICN1, Level: 1, RateSpec: RateSpec{MTTF: 4000, MTTR: 100}},
		},
		ICN2Switches: []ICN2SwitchFailureSpec{
			{Level: 0, RateSpec: RateSpec{MTTF: 50000, MTTR: 100}},
		},
		States: StatesSpec{MaxExact: 20000},
	}
}

// capacityLossBlock degrades only carried capacity (non-leaf switches
// and links inflate per-channel rates; populations are untouched) plus
// the single ICN2 switch, whose failure downs the system.
func capacityLossBlock() *Block {
	return &Block{
		Switches: []SwitchFailureSpec{
			{Group: 1, Network: NetICN1, Level: 0, RateSpec: RateSpec{MTTF: 4000, MTTR: 200}},
		},
		Links: []LinkFailureSpec{
			{Group: 0, Network: NetICN1, RateSpec: RateSpec{MTTF: 3000, MTTR: 150}},
			{Group: 1, Network: NetECN1, RateSpec: RateSpec{MTTF: 3000, MTTR: 150}},
		},
		ICN2Switches: []ICN2SwitchFailureSpec{
			{Level: 0, RateSpec: RateSpec{MTTF: 50000, MTTR: 100}},
		},
		States: StatesSpec{MaxExact: 50000},
	}
}

// TestEngineDegradedAggregates: pure capacity loss must cost latency and
// capacity (populations unchanged, channels fewer), and the
// single-switch ICN2 tree's availability bounds the system's.
func TestEngineDegradedAggregates(t *testing.T) {
	rep, err := (&Engine{}).Run(context.Background(), smallStudy(capacityLossBlock()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Method != MethodExact {
		t.Fatalf("method %q, want exact", rep.Method)
	}
	if !(rep.ExpectedLatency > rep.Nominal.Latency) {
		t.Errorf("expected latency %v not above nominal %v", rep.ExpectedLatency, rep.Nominal.Latency)
	}
	if !(rep.ExpectedCapacity < rep.Nominal.Capacity) {
		t.Errorf("expected capacity %v not below nominal %v", rep.ExpectedCapacity, rep.Nominal.Capacity)
	}
	if !(rep.ExpectedServedFraction < 1) {
		// Down states (ICN2 dead) serve nothing, so the expectation
		// dips below one even though up states serve everything.
		t.Errorf("expected served fraction %v, want < 1", rep.ExpectedServedFraction)
	}
	// The ICN2 tree of the miniature is one switch; its availability
	// 50000/50100 caps the system's.
	icn2A := 50000.0 / 50100.0
	if rep.Availability > icn2A+1e-9 {
		t.Errorf("availability %v above the ICN2 ceiling %v", rep.Availability, icn2A)
	}
	if rep.Availability < 0.9*icn2A {
		t.Errorf("availability %v implausibly far below the ICN2 ceiling %v", rep.Availability, icn2A)
	}
	if math.Abs(rep.CoveredProbability-1) > 1e-9 {
		t.Errorf("exact enumeration covers %v, want ~1", rep.CoveredProbability)
	}
	// Percentiles are monotone non-increasing in q.
	for i := 1; i < len(rep.Percentiles); i++ {
		if rep.Percentiles[i].Capacity > rep.Percentiles[i-1].Capacity {
			t.Errorf("percentile capacities not monotone: %+v", rep.Percentiles)
		}
	}
	if len(rep.TopStates) == 0 || rep.TopStates[0].Weight <= 0 {
		t.Errorf("top states missing: %+v", rep.TopStates)
	}
}

// TestExactVsSampledAgree is the acceptance criterion: on a small state
// space the exact Markov aggregation and the stratified Monte Carlo
// sampler must agree within a few percent on every headline aggregate.
func TestExactVsSampledAgree(t *testing.T) {
	block := failureBlock()
	exact, err := (&Engine{}).Run(context.Background(), smallStudy(block))
	if err != nil {
		t.Fatal(err)
	}
	sampledBlock := failureBlock()
	sampledBlock.States = StatesSpec{MaxExact: 1, Samples: 4096}
	sampled, err := (&Engine{}).Run(context.Background(), smallStudy(sampledBlock))
	if err != nil {
		t.Fatal(err)
	}
	if sampled.Method != MethodSample {
		t.Fatalf("method %q, want sample", sampled.Method)
	}
	check := func(name string, a, b, tol float64) {
		t.Helper()
		diff := math.Abs(a - b)
		scale := math.Max(math.Abs(a), math.Abs(b))
		if scale > 0 && diff/scale > tol {
			t.Errorf("%s: exact %v vs sampled %v (%.2f%% apart)", name, a, b, 100*diff/scale)
		}
	}
	check("availability", exact.Availability, sampled.Availability, 0.02)
	check("expectedLatency", exact.ExpectedLatency, sampled.ExpectedLatency, 0.05)
	check("expectedCapacity", exact.ExpectedCapacity, sampled.ExpectedCapacity, 0.05)
	check("expectedServedFraction", exact.ExpectedServedFraction, sampled.ExpectedServedFraction, 0.02)
	check("sloViolation", exact.SLOViolation, sampled.SLOViolation, 0.05)
}

// TestEngineDeterministicAcrossWorkers is the second acceptance
// criterion: a run over >= 1000 availability states must be
// byte-identical at GOMAXPROCS 1 and 8.
func TestEngineDeterministicAcrossWorkers(t *testing.T) {
	// 17 × 9 × 9 = 1377 exact states: past the 1000-state acceptance
	// floor, cheap enough to evaluate three times.
	block := &Block{
		Nodes: []NodeFailureSpec{
			{Group: 1, RateSpec: RateSpec{MTTF: 1500, MTTR: 50, Repairers: 2}},
		},
		Switches: []SwitchFailureSpec{
			{Group: 1, Network: NetICN1, Level: 1, RateSpec: RateSpec{MTTF: 4000, MTTR: 100}},
			{Group: 1, Network: NetECN1, Level: 1, RateSpec: RateSpec{MTTF: 3000, MTTR: 100}},
		},
		States: StatesSpec{MaxExact: 2000},
	}
	run := func(procs int) ([]byte, *Report) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		rep, err := (&Engine{}).Run(context.Background(), smallStudy(block))
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b, rep
	}
	base, rep := run(1)
	if rep.StatesEvaluated < 1000 {
		t.Fatalf("only %d states evaluated; the acceptance criterion needs >= 1000", rep.StatesEvaluated)
	}
	for _, procs := range []int{2, 8} {
		if got, _ := run(procs); string(got) != string(base) {
			t.Fatalf("report differs between GOMAXPROCS=1 and GOMAXPROCS=%d", procs)
		}
	}
	// The sampled path must be GOMAXPROCS-invariant too.
	sblock := failureBlock()
	sblock.States = StatesSpec{MaxExact: 1, Samples: 1500}
	runS := func(procs int) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		rep, err := (&Engine{}).Run(context.Background(), smallStudy(sblock))
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	sbase := runS(1)
	if got := runS(8); string(got) != string(sbase) {
		t.Fatal("sampled report differs between GOMAXPROCS=1 and GOMAXPROCS=8")
	}
}

// TestEvalStateDamage exercises the rebuild paths directly.
func TestEvalStateDamage(t *testing.T) {
	st := smallStudy(failureBlock())
	ev, err := compile(st)
	if err != nil {
		t.Fatal(err)
	}
	nominal, err := core.New(st.Sys, st.Msg, st.Opt)
	if err != nil {
		t.Fatal(err)
	}
	ev.probe = 0.5 * nominal.SaturationPoint(1.0, 1e-4)

	// Intact state.
	intact := ev.evalState([]int{0, 0, 0, 0}, ev.probe)
	if !intact.Up || intact.ServedFraction != 1 || intact.SLOViolation {
		t.Fatalf("intact state misreported: %+v", intact)
	}

	// Node failures shrink the served fraction but keep the system up.
	nodes := ev.evalState([]int{2, 3, 0, 0}, ev.probe)
	if !nodes.Up {
		t.Fatal("node failures took the system down")
	}
	want := 1 - 5.0/float64(ev.total)
	if math.Abs(nodes.ServedFraction-want) > 1e-12 {
		t.Errorf("served fraction %v, want %v", nodes.ServedFraction, want)
	}
	if intact.Latency == nil || nodes.Latency == nil {
		t.Fatal("latency missing on up states")
	}

	// The single ICN2 switch failing downs everything (class order:
	// nodes g0, nodes g1, switches g1, icn2Switches).
	icn2 := ev.evalState([]int{0, 0, 0, 1}, ev.probe)
	if icn2.Up || icn2.ServedFraction != 0 || !icn2.SLOViolation {
		t.Errorf("ICN2 root failure misreported: %+v", icn2)
	}

	// All nodes of group 0 failing still leaves group 1 serving.
	g0 := ev.classes[0].count
	half := ev.evalState([]int{g0, 0, 0, 0}, ev.probe)
	if half.Up {
		// Group 0's clusters die entirely — the survivors must carry on.
		if half.ServedFraction >= 1 {
			t.Errorf("full group-0 loss served fraction %v", half.ServedFraction)
		}
	} else {
		t.Errorf("full group-0 node loss took the whole system down: %+v", half)
	}
}

// TestStudyValidation covers the compile-time rejections.
func TestStudyValidation(t *testing.T) {
	base := func() *Study { return smallStudy(failureBlock()) }
	cases := []struct {
		name string
		mut  func(*Study)
	}{
		{"nil block", func(s *Study) { s.Block = nil }},
		{"group map short", func(s *Study) { s.GroupOf = []int{0, 0} }},
		{"mixed heights in group", func(s *Study) { s.GroupOf = []int{0, 0, 0, 0} }},
		{"group out of range", func(s *Study) { s.Block.Nodes[0].Group = 7 }},
		{"bad network", func(s *Study) { s.Block.Switches[0].Network = "icn9" }},
		{"bad level", func(s *Study) { s.Block.Switches[0].Level = 5 }},
		{"icn2 level out of range", func(s *Study) { s.Block.ICN2Switches[0].Level = 3 }},
		{"zero mttf", func(s *Study) { s.Block.Nodes[0].MTTF = 0 }},
		{"probe conflict", func(s *Study) { s.Block.Probe = ProbeSpec{Lambda: 0.1, Fraction: 0.5} }},
	}
	for _, tc := range cases {
		s := base()
		tc.mut(s)
		if _, err := (&Engine{}).Run(context.Background(), s); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
