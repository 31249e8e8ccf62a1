package optimize

import (
	"context"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

// runJSON runs spec at the given GOMAXPROCS and returns the marshaled
// report.
func runJSON(t *testing.T, spec *SearchSpec, procs int) []byte {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	rep, err := (&Engine{}).Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	return b
}

// TestGridFindsFrontier runs the exhaustive search over the unit space
// and sanity-checks the report accounting.
func TestGridFindsFrontier(t *testing.T) {
	spec := mustParse(t, validSpecJSON)
	eng := &Engine{}
	rep, err := eng.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Method != MethodGrid {
		t.Errorf("method = %q, want grid", rep.Method)
	}
	if rep.SpaceSize != 96 {
		t.Errorf("space size = %d", rep.SpaceSize)
	}
	if rep.Feasible == 0 || len(rep.Frontier) == 0 || rep.Best == nil {
		t.Fatalf("no feasible candidates: %+v", rep)
	}
	if rep.Evaluated != rep.Processed {
		t.Errorf("grid absorbed repeated ids: evaluated %d != processed %d", rep.Evaluated, rep.Processed)
	}
	// Every processed candidate lands in exactly one bucket.
	if rep.Feasible+rep.Infeasible.total()+rep.Duplicates != rep.Processed {
		t.Errorf("accounting: %d feasible + %d infeasible + %d duplicates != %d processed",
			rep.Feasible, rep.Infeasible.total(), rep.Duplicates, rep.Processed)
	}
	for i := range rep.Frontier {
		p := &rep.Frontier[i]
		if p.Cost <= 0 || p.SaturationLambda <= 0 || p.Latency <= 0 {
			t.Errorf("frontier point %d has degenerate metrics: %+v", i, p)
		}
	}
}

// TestFrontierNonDominated is the frontier property test: no frontier
// member may dominate another, and no feasible candidate in the whole
// space may dominate any frontier member (checked exhaustively against
// an independent full enumeration).
func TestFrontierNonDominated(t *testing.T) {
	spec := mustParse(t, validSpecJSON)
	eng := &Engine{}
	rep, err := eng.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Frontier {
		for j := range rep.Frontier {
			if i != j && dominates(&rep.Frontier[i], &rep.Frontier[j]) {
				t.Errorf("frontier point %d dominates member %d", i, j)
			}
		}
	}

	// Independent enumeration: every feasible candidate must be weakly
	// dominated by (or equal to a member of) the frontier.
	sp, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	sc := sp.newScratch()
	scratch := make([]int, sp.Dims())
	for id := uint64(0); id < sp.Size(); id++ {
		if sp.Canonical(id, scratch) != id {
			continue
		}
		r := sp.evaluate(id, sc)
		if !r.feasible {
			continue
		}
		p := sp.point(&r)
		for i := range rep.Frontier {
			if dominates(&p, &rep.Frontier[i]) {
				t.Errorf("feasible candidate %d dominates frontier member %d", id, rep.Frontier[i].ID)
			}
		}
	}
}

// TestGridDeterminism: identical spec and seed yield byte-identical
// reports across repeated runs and GOMAXPROCS values (CI also runs the
// package at -cpu 1,4).
func TestGridDeterminism(t *testing.T) {
	spec := mustParse(t, validSpecJSON)
	base := runJSON(t, spec, 1)
	for _, procs := range []int{1, 2, 4, 13} {
		got := runJSON(t, spec, procs)
		if string(got) != string(base) {
			t.Fatalf("report differs at GOMAXPROCS=%d:\n%s\nvs\n%s", procs, got, base)
		}
	}
}

// beamSpecJSON forces the beam method on the unit space with a small
// budget.
func beamSpec(t *testing.T, method string, budget int) *SearchSpec {
	t.Helper()
	spec := mustParse(t, validSpecJSON)
	spec.Search.Method = method
	spec.Search.MaxCandidates = budget
	spec.Search.BeamWidth = 4
	spec.Search.Chains = 3
	return spec
}

func TestBeamDeterminism(t *testing.T) {
	spec := beamSpec(t, MethodBeam, 60)
	base := runJSON(t, spec, 1)
	for _, procs := range []int{2, 4} {
		if got := runJSON(t, spec, procs); string(got) != string(base) {
			t.Fatalf("beam report differs at GOMAXPROCS=%d", procs)
		}
	}
	var rep Report
	if err := json.Unmarshal(base, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Method != MethodBeam || rep.Best == nil {
		t.Fatalf("beam found nothing: %+v", rep)
	}
	if rep.Processed > 60 {
		t.Errorf("beam overran its budget: processed %d > 60", rep.Processed)
	}
}

func TestAnnealDeterminism(t *testing.T) {
	spec := beamSpec(t, MethodAnneal, 60)
	base := runJSON(t, spec, 1)
	for _, procs := range []int{2, 4} {
		if got := runJSON(t, spec, procs); string(got) != string(base) {
			t.Fatalf("anneal report differs at GOMAXPROCS=%d", procs)
		}
	}
	var rep Report
	if err := json.Unmarshal(base, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Method != MethodAnneal || rep.Best == nil {
		t.Fatalf("anneal found nothing: %+v", rep)
	}
}

// TestSeedChangesSearchTrajectory: heuristic methods draw every random
// decision from the spec seed, so different seeds explore differently
// (same space, so the grid result would not change — use beam).
func TestSeedChangesSearchTrajectory(t *testing.T) {
	a := beamSpec(t, MethodBeam, 30)
	b := beamSpec(t, MethodBeam, 30)
	b.Seed = 99
	ra := runJSON(t, a, 4)
	rb := runJSON(t, b, 4)
	var pa, pb Report
	if err := json.Unmarshal(ra, &pa); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rb, &pb); err != nil {
		t.Fatal(err)
	}
	if pa.Seed == pb.Seed {
		t.Fatalf("seeds not recorded: %d vs %d", pa.Seed, pb.Seed)
	}
}

// TestHeuristicsFindGridOptimum: on the small unit space, beam search
// and annealing (with budget ≥ space size) must land on the same best
// objective the exhaustive grid proves optimal.
func TestHeuristicsFindGridOptimum(t *testing.T) {
	grid := mustParse(t, validSpecJSON)
	eng := &Engine{}
	gridRep, err := eng.Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{MethodBeam, MethodAnneal} {
		spec := beamSpec(t, method, 400) // budget > canonical space
		rep, err := (&Engine{}).Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if rep.Best == nil {
			t.Fatalf("%s found no feasible candidate", method)
		}
		if rep.Best.Objective < gridRep.Best.Objective {
			t.Errorf("%s best %v < grid optimum %v", method, rep.Best.Objective, gridRep.Best.Objective)
		}
	}
}

// TestObjectiveOrientation: minCost must prefer the cheapest feasible
// config, maxSaturation the highest saturation.
func TestObjectiveOrientation(t *testing.T) {
	spec := mustParse(t, validSpecJSON)
	spec.Objective = ObjMinCost
	spec.Constraints.MinSaturation = 1e-9 // the SLO minCost requires
	rep, err := (&Engine{}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Frontier {
		if rep.Frontier[i].Cost < rep.Best.Cost {
			t.Errorf("minCost best costs %v but frontier point %d costs %v",
				rep.Best.Cost, i, rep.Frontier[i].Cost)
		}
	}

	spec2 := mustParse(t, validSpecJSON)
	rep2, err := (&Engine{}).Run(context.Background(), spec2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep2.Frontier {
		if rep2.Frontier[i].SaturationLambda > rep2.Best.SaturationLambda {
			t.Errorf("maxSaturation best %v below frontier point %d (%v)",
				rep2.Best.SaturationLambda, i, rep2.Frontier[i].SaturationLambda)
		}
	}
}

// TestConstraintsFilter: tightening constraints shrinks the feasible
// set and never admits a violating frontier point.
func TestConstraintsFilter(t *testing.T) {
	spec := mustParse(t, validSpecJSON)
	open, err := (&Engine{}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	spec2 := mustParse(t, validSpecJSON)
	spec2.Constraints.MaxNodes = 40
	spec2.Constraints.MaxCost = open.Best.Cost // below the most expensive
	tight, err := (&Engine{}).Run(context.Background(), spec2)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Feasible > open.Feasible {
		t.Errorf("tighter constraints admit more candidates: %d > %d", tight.Feasible, open.Feasible)
	}
	for i := range tight.Frontier {
		p := &tight.Frontier[i]
		if p.Nodes > 40 || p.Cost > spec2.Constraints.MaxCost {
			t.Errorf("frontier point %d violates constraints: %+v", i, p)
		}
	}
}

// TestProgressSequence: progress callbacks arrive with monotone
// counters and a deterministic final state.
func TestProgressSequence(t *testing.T) {
	spec := mustParse(t, validSpecJSON)
	var seq []Progress
	eng := &Engine{ProgressEvery: 10, Progress: func(p Progress) { seq = append(seq, p) }}
	rep, err := eng.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) == 0 {
		t.Fatal("no progress emitted")
	}
	for i := 1; i < len(seq); i++ {
		if seq[i].Processed <= seq[i-1].Processed {
			t.Errorf("progress %d not monotone: %d after %d", i, seq[i].Processed, seq[i-1].Processed)
		}
	}
	last := seq[len(seq)-1]
	if last.Processed > rep.Processed || last.FrontierSize > len(rep.Frontier)+last.Processed {
		t.Errorf("final progress inconsistent with report: %+v vs %+v", last, rep)
	}
}

// TestRunCanceled: a canceled context aborts the search with its cause.
func TestRunCanceled(t *testing.T) {
	spec := mustParse(t, validSpecJSON)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (&Engine{}).Run(ctx, spec); err == nil {
		t.Fatal("Run ignored a canceled context")
	}
}

// TestGridOverBudget: an explicit grid beyond maxCandidates is refused
// with a field-path error.
func TestGridOverBudget(t *testing.T) {
	spec := mustParse(t, validSpecJSON)
	spec.Search.Method = MethodGrid
	spec.Search.MaxCandidates = 10
	_, err := (&Engine{}).Run(context.Background(), spec)
	if err == nil || !strings.Contains(err.Error(), "search.method") {
		t.Fatalf("err = %v, want search.method complaint", err)
	}
}

// TestAutoPicksBeamForLargeSpaces: auto must switch to beam when the
// space exceeds the budget.
func TestAutoPicksBeamForLargeSpaces(t *testing.T) {
	spec := mustParse(t, validSpecJSON)
	spec.Search.MaxCandidates = 10
	rep, err := (&Engine{}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Method != MethodBeam {
		t.Errorf("auto picked %q for a 96-candidate space with budget 10", rep.Method)
	}
	if rep.Processed > 10 {
		t.Errorf("auto beam overran the budget: %d", rep.Processed)
	}
}
