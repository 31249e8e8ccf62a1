package optimize

import (
	"context"
	"math"
	"sort"

	"github.com/ccnet/ccnet/internal/batch"
	"github.com/ccnet/ccnet/internal/rng"
)

// chunkSize bounds one sharded evaluation wave: large enough to keep the
// pool busy, small enough for regular progress emission.
const chunkSize = 4096

// rng salts separating the engine's independent random streams.
const (
	beamSalt   = 0x6265616d // "beam"
	annealSalt = 0x616e6e65 // "anne"
)

// Progress is one incremental search update, delivered in a
// deterministic sequence for a given spec and seed (no wall-clock
// content).
type Progress struct {
	Method    string `json:"method"`
	SpaceSize uint64 `json:"spaceSize"`
	// Processed counts candidates examined, including duplicates and
	// infeasible ones; Evaluated counts unique model evaluations.
	Processed    int `json:"processed"`
	Evaluated    int `json:"evaluated"`
	Feasible     int `json:"feasible"`
	FrontierSize int `json:"frontierSize"`
	// Best-so-far under the spec objective (higher is better).
	BestID        uint64  `json:"bestId"`
	BestObjective float64 `json:"bestObjective"`
	HasBest       bool    `json:"hasBest"`
}

// Report is the terminal result of one search: accounting plus the
// Pareto frontier (cost × latency × saturation non-dominated set) and
// the best point under the spec's scalar objective. Marshaling a Report
// is deterministic — identical spec and seed yield byte-identical JSON
// at any worker count.
type Report struct {
	Name      string `json:"name"`
	Title     string `json:"title,omitempty"`
	Objective string `json:"objective"`
	Method    string `json:"method"`
	Seed      uint64 `json:"seed"`

	SpaceSize  uint64           `json:"spaceSize"`
	Processed  int              `json:"processed"`
	Evaluated  int              `json:"evaluated"`
	Feasible   int              `json:"feasible"`
	Duplicates int              `json:"duplicates"`
	Infeasible InfeasibleCounts `json:"infeasible"`

	Frontier []Point `json:"frontier"`
	Best     *Point  `json:"best,omitempty"`
}

// Engine runs design-space searches. The zero value is usable.
// Candidates are evaluated on the parallel loop (internal/batch), and
// the result is identical at any GOMAXPROCS.
type Engine struct {
	// Progress, when set, receives incremental updates (sequentially,
	// never concurrently).
	Progress func(Progress)
	// ProgressEvery sets the update cadence in processed candidates
	// (default 2000).
	ProgressEvery int
}

// Run searches spec's design space and returns the report. Cancelling
// ctx stops the search with the context's error.
func (e *Engine) Run(ctx context.Context, spec *SearchSpec) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	space, err := Compile(spec)
	if err != nil {
		return nil, err
	}

	method := spec.Search.Method
	if method == "" || method == MethodAuto {
		if space.Size() <= uint64(spec.Search.maxCandidates()) {
			method = MethodGrid
		} else {
			method = MethodBeam
		}
	}
	if method == MethodGrid && space.Size() > uint64(spec.Search.maxCandidates()) {
		return nil, fieldErr("search.method",
			"grid over %d candidates exceeds search.maxCandidates=%d; raise the budget or use beam/anneal",
			space.Size(), spec.Search.maxCandidates())
	}

	st := &searchState{
		engine:  e,
		space:   space,
		method:  method,
		seen:    make(map[uint64]struct{}),
		sysSeen: make(map[string]struct{}),
	}
	if method == MethodBeam {
		st.objectives = make(map[uint64]float64)
	}

	switch method {
	case MethodGrid:
		err = st.runGrid(ctx)
	case MethodBeam:
		err = st.runBeam(ctx)
	case MethodAnneal:
		err = st.runAnneal(ctx)
	}
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Name:       spec.Name,
		Title:      spec.Title,
		Objective:  spec.objective(),
		Method:     method,
		Seed:       spec.seed(),
		SpaceSize:  space.Size(),
		Processed:  st.processed,
		Evaluated:  st.evaluated,
		Feasible:   st.feasible,
		Duplicates: st.duplicates,
		Infeasible: st.infeasible,
		Frontier:   st.frontier.Points(),
	}
	// Materialize the system sections only for the surviving points.
	for i := range rep.Frontier {
		rep.Frontier[i].System = space.SystemSpec(rep.Frontier[i].ID)
	}
	if st.hasBest {
		p := space.point(&st.best)
		p.System = space.SystemSpec(p.ID)
		rep.Best = &p
	}
	return rep, nil
}

// searchState accumulates one run. All mutation happens in the ordered
// emission path (absorb), never concurrently.
type searchState struct {
	engine *Engine
	space  *Space
	method string

	seen       map[uint64]struct{}
	sysSeen    map[string]struct{} // physical-system fingerprints
	objectives map[uint64]float64  // feasible id → objective; beam ranking only
	processed  int
	evaluated  int
	feasible   int
	duplicates int
	infeasible InfeasibleCounts

	frontier Frontier
	best     candResult
	hasBest  bool

	sinceProgress int

	// scratches holds one evaluation scratch per parallel-loop goroutine,
	// reused across waves; results are scratch-independent, so which
	// goroutine serves an id cannot perturb the deterministic trajectory.
	scratches []*evalScratch
	// evalChunk wave buffer, reused across waves.
	results []candResult
}

// absorb folds one evaluated candidate into the state. Duplicates —
// repeated IDs (possible across annealing chains) and distinct IDs that
// materialize the same physical system (group templates swapping roles)
// — are counted but enter the frontier only once, under the first ID
// absorbed.
func (st *searchState) absorb(r *candResult) {
	st.processed++
	switch {
	case contains(st.seen, r.id):
		st.duplicates++
	case r.fingerprint != "" && contains(st.sysSeen, r.fingerprint):
		st.seen[r.id] = struct{}{}
		st.evaluated++
		st.duplicates++
	default:
		st.seen[r.id] = struct{}{}
		if r.fingerprint != "" {
			st.sysSeen[r.fingerprint] = struct{}{}
		}
		st.evaluated++
		if r.feasible {
			st.feasible++
			st.frontier.Add(st.space.point(r))
			if st.objectives != nil {
				st.objectives[r.id] = r.objective
			}
			if !st.hasBest || r.objective > st.best.objective ||
				(r.objective == st.best.objective && r.id < st.best.id) {
				st.best = *r
				st.hasBest = true
			}
		} else {
			st.infeasible.add(r.reason)
		}
	}
	st.sinceProgress++
	if st.sinceProgress >= st.progressEvery() {
		st.sinceProgress = 0
		st.emitProgress()
	}
}

// contains is a tiny generic membership probe.
func contains[K comparable](m map[K]struct{}, k K) bool {
	_, ok := m[k]
	return ok
}

func (st *searchState) progressEvery() int {
	if st.engine.ProgressEvery > 0 {
		return st.engine.ProgressEvery
	}
	return 2000
}

func (st *searchState) emitProgress() {
	if st.engine.Progress == nil {
		return
	}
	p := Progress{
		Method:       st.method,
		SpaceSize:    st.space.Size(),
		Processed:    st.processed,
		Evaluated:    st.evaluated,
		Feasible:     st.feasible,
		FrontierSize: st.frontier.Size(),
	}
	if st.hasBest {
		p.BestID, p.BestObjective, p.HasBest = st.best.id, st.best.objective, true
	}
	st.engine.Progress(p)
}

// evalChunk spreads ids over the parallel loop and absorbs the results
// in id-list order, so aggregation is deterministic at any GOMAXPROCS.
// The chunk's result buffer and the per-goroutine scratches are reused
// across waves.
func (st *searchState) evalChunk(ctx context.Context, ids []uint64) error {
	if len(ids) == 0 {
		return nil
	}
	if cap(st.results) < len(ids) {
		st.results = make([]candResult, len(ids))
	}
	results := st.results[:len(ids)]
	for len(st.scratches) < batch.Workers(0, len(ids)) {
		st.scratches = append(st.scratches, st.space.newScratch())
	}
	if err := batch.Run(ctx, len(ids), 0, func(w, i int) {
		results[i] = st.space.evaluate(ids[i], st.scratches[w])
	}, nil); err != nil {
		return err
	}
	for i := range results {
		st.absorb(&results[i])
	}
	return nil
}

// --- grid ------------------------------------------------------------------

// runGrid enumerates every canonical candidate in rank order.
// Non-canonical aliases (dead axes of absent groups) are skipped without
// evaluation. Ranks are sequential, so the digit vector advances as an
// odometer instead of being re-decoded per id; a vector is canonical
// exactly when every absent group's dependent digits are zero.
func (st *searchState) runGrid(ctx context.Context) error {
	sp := st.space
	digits := make([]int, sp.Dims())
	buf := make([]uint64, 0, chunkSize)
	for id := uint64(0); id < sp.Size(); id++ {
		canonical := true
		for gi := range sp.groups {
			base := 3 + gi*groupDims
			if sp.groups[gi].counts[digits[base]] == 0 &&
				digits[base+1]|digits[base+2]|digits[base+3] != 0 {
				canonical = false
				break
			}
		}
		if canonical {
			buf = append(buf, id)
			if len(buf) == chunkSize {
				if err := st.evalChunk(ctx, buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
		}
		for d := len(digits) - 1; d >= 0; d-- {
			digits[d]++
			if digits[d] < sp.radix[d] {
				break
			}
			digits[d] = 0
		}
	}
	return st.evalChunk(ctx, buf)
}

// --- beam ------------------------------------------------------------------

// runBeam keeps the best beamWidth feasible candidates found so far,
// expands all their single-axis neighbors each round, and tops the
// expansion up with seeded random probes (which double as restarts while
// the beam is empty or its neighborhood has gone dry). Every random draw
// comes from the spec seed and evaluation waves absorb in generation
// order, so the search trajectory is deterministic at any parallelism.
func (st *searchState) runBeam(ctx context.Context) error {
	opts := &st.space.spec.Search
	width := opts.beamWidth()
	budget := opts.maxCandidates()
	stream := rng.New(st.space.spec.seed(), beamSalt)
	scratch := make([]int, st.space.Dims())

	// scheduled tracks every id ever queued, bounding total work.
	scheduled := make(map[uint64]struct{})
	var pending []uint64

	probes := 4 * width
	if uint64(probes) > st.space.Size() {
		probes = int(st.space.Size())
	}
	pending = st.randomProbes(stream, scratch, scheduled, pending, probes)

	for round := 0; round < opts.rounds(); round++ {
		if left := budget - st.processed; left <= 0 {
			break
		} else if len(pending) > left {
			pending = pending[:left]
		}
		if len(pending) == 0 {
			break
		}
		if err := st.evalChunk(ctx, pending); err != nil {
			return err
		}
		pending = pending[:0]

		for _, id := range st.beamMembers(width) {
			pending = st.neighbors(id, scratch, scheduled, pending)
		}
		pending = st.randomProbes(stream, scratch, scheduled, pending, width)
	}
	return nil
}

// beamMembers returns the top-width feasible ids by (objective desc,
// id asc).
func (st *searchState) beamMembers(width int) []uint64 {
	ids := make([]uint64, 0, len(st.objectives))
	for id := range st.objectives {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		oi, oj := st.objectives[ids[i]], st.objectives[ids[j]]
		if oi != oj {
			return oi > oj
		}
		return ids[i] < ids[j]
	})
	if len(ids) > width {
		ids = ids[:width]
	}
	return ids
}

// neighbors schedules every not-yet-queued canonical single-axis
// mutation of id, in axis order.
func (st *searchState) neighbors(id uint64, scratch []int, scheduled map[uint64]struct{}, pending []uint64) []uint64 {
	dims := st.space.Dims()
	base := make([]int, dims)
	st.space.Digits(id, base)
	mut := make([]int, dims)
	for d := 0; d < dims; d++ {
		for v := 0; v < st.space.radix[d]; v++ {
			if v == base[d] {
				continue
			}
			copy(mut, base)
			mut[d] = v
			nid := st.space.Canonical(st.space.ID(mut), scratch)
			if _, ok := scheduled[nid]; !ok {
				scheduled[nid] = struct{}{}
				pending = append(pending, nid)
			}
		}
	}
	return pending
}

// randomProbes schedules up to n unseen canonical candidates drawn from
// stream.
func (st *searchState) randomProbes(stream *rng.Stream, scratch []int, scheduled map[uint64]struct{}, pending []uint64, n int) []uint64 {
	for tries := 0; n > 0 && tries < 16*n; tries++ {
		id := st.space.Canonical(stream.Uint64()%st.space.Size(), scratch)
		if _, ok := scheduled[id]; ok {
			continue
		}
		scheduled[id] = struct{}{}
		pending = append(pending, id)
		n--
	}
	return pending
}

// --- anneal ----------------------------------------------------------------

// annealing schedule endpoints (relative temperature).
const (
	annealT0   = 0.3
	annealTEnd = 1e-3
)

// runAnneal runs spec.Search.Chains independent simulated-annealing
// chains, each a deterministic function of (seed, chain index), spread
// over the parallel loop and merged in chain order.
func (st *searchState) runAnneal(ctx context.Context) error {
	opts := &st.space.spec.Search
	chains := opts.chains()
	steps := opts.maxCandidates() / chains
	if steps < 1 {
		steps = 1
	}
	base := rng.New(st.space.spec.seed(), annealSalt)

	outs := make([][]candResult, chains)
	return batch.Run(ctx, chains, 0, func(_, i int) {
		outs[i] = st.space.annealChain(base.Derive(uint64(i)), steps)
	}, func(i int) error {
		for j := range outs[i] {
			st.absorb(&outs[i][j])
		}
		outs[i] = nil
		return nil
	})
}

// annealChain walks one Metropolis chain of the given length and
// returns every evaluation it made, in step order.
func (sp *Space) annealChain(stream *rng.Stream, steps int) []candResult {
	scratch := make([]int, sp.Dims())
	digits := make([]int, sp.Dims())
	sc := sp.newScratch()
	out := make([]candResult, 0, steps)

	cur := sp.Canonical(stream.Uint64()%sp.Size(), scratch)
	curRes := sp.evaluate(cur, sc)
	out = append(out, curRes)

	for step := 1; step < steps; step++ {
		frac := float64(step) / float64(steps)
		temp := annealT0 * math.Pow(annealTEnd/annealT0, frac)

		// Mutate one random axis to a random different value.
		sp.Digits(cur, digits)
		d := stream.IntN(sp.Dims())
		if sp.radix[d] > 1 {
			v := stream.IntN(sp.radix[d] - 1)
			if v >= digits[d] {
				v++
			}
			digits[d] = v
		}
		cand := sp.Canonical(sp.ID(digits), scratch)
		candRes := sp.evaluate(cand, sc)
		out = append(out, candRes)

		if acceptMove(&curRes, &candRes, temp, stream) {
			cur, curRes = cand, candRes
		}
	}
	return out
}

// acceptMove is the Metropolis criterion over the higher-is-better
// objective, with feasibility transitions handled explicitly: feasible
// always beats infeasible, and two infeasible states random-walk.
func acceptMove(cur, cand *candResult, temp float64, stream *rng.Stream) bool {
	switch {
	case cand.feasible && !cur.feasible:
		return true
	case !cand.feasible && !cur.feasible:
		return true // random walk until the feasible region is found
	case !cand.feasible:
		return false
	}
	d := cand.objective - cur.objective
	if d >= 0 {
		return true
	}
	scale := math.Abs(cur.objective)
	if scale == 0 {
		scale = 1
	}
	return stream.Float64() < math.Exp(d/(temp*scale))
}
