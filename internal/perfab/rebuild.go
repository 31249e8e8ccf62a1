package perfab

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/ccnet/ccnet/internal/cluster"
	"github.com/ccnet/ccnet/internal/core"
	"github.com/ccnet/ccnet/internal/netchar"
	"github.com/ccnet/ccnet/internal/topology"
)

// Study is one compiled performability question: the intact system, its
// cluster-group structure (failure classes address groups), the message
// geometry and model options every state is evaluated under, and the
// failure block.
type Study struct {
	// Name labels the study in reports.
	Name string
	// Sys is the intact system (must pass cluster.System.Validate).
	Sys *cluster.System
	// GroupOf maps each cluster to its group index (len = NumClusters).
	// Clusters of one group must share a tree height.
	GroupOf []int
	Msg     netchar.MessageSpec
	Opt     core.Options
	Block   *Block
	// Seed drives the stratified state sampler (default 1).
	Seed uint64
}

func (st *Study) seed() uint64 {
	if st.Seed == 0 {
		return 1
	}
	return st.Seed
}

// class kinds, in failed-vector order.
const (
	kNodes = iota
	kSwitch
	kICN2Switch
	kLink
	kICN2Link
)

// compClass is one compiled failure class: its component pool size and
// exact birth–death steady-state distribution.
type compClass struct {
	label   string
	kind    int
	group   int    // -1 for ICN2 classes
	network string // NetICN1/NetECN1 for switch and link classes
	level   int    // -1 when not applicable
	count   int
	rate    RateSpec
	dist    []float64
}

// evaluator holds everything a state evaluation needs, shared read-only
// across workers (the distribution cache is the only mutable member).
type evaluator struct {
	st      *Study
	classes []compClass

	groupIdx  [][]int          // group → cluster indices, cluster order
	groupTree []*topology.Tree // group → its clusters' (k, n) tree
	icn2Tree  *topology.Tree
	total     int // intact node count
	probe     float64
	slo       SLOSpec

	mu        sync.Mutex
	distCache map[distCacheKey]*distEntry
	icn2Cache map[string]*distEntry // alive-cluster mask → ICN2 survivor dist
	// distComputes counts survivorDist cache fills; concurrent misses on
	// one key must coalesce into a single computation (tested).
	distComputes atomic.Uint64

	arenas sync.Pool // of *stateArena
}

type distCacheKey struct{ group, leafFailed, nodeFailed int }

// distEntry coalesces concurrent cache misses on one key: the first
// caller computes under the entry's once, later callers wait on it
// instead of redoing the enumeration.
type distEntry struct {
	once sync.Once
	d    []float64
}

// stateArena is one worker's reusable rebuild state: the per-cluster
// damage buffers, the degraded system/degradation skeletons, and a
// core.Precompute handle (the Eq 6 distributions and the pair-cell slab
// each rebuild reuses, so a state's model is dropped before the arena's
// next build). An arena is exclusive to one evalState call at a time;
// every placement is canonical, so results are bit-identical whichever
// arena serves a state.
type stateArena struct {
	cs        []clusterState
	survivors []int
	dists     [][]float64
	mask      []bool
	maskKey   []byte
	sys       *cluster.System
	deg       *core.Degradation
	pre       *core.Precompute
}

func (ev *evaluator) getArena() *stateArena {
	if ar, ok := ev.arenas.Get().(*stateArena); ok {
		return ar
	}
	return &stateArena{
		sys: &cluster.System{},
		deg: &core.Degradation{},
		pre: core.NewPrecompute(),
	}
}

// compile validates the study and builds the evaluator: group structure,
// topology trees, component pools and their steady-state distributions.
func compile(st *Study) (*evaluator, error) {
	if st.Block == nil {
		return nil, fmt.Errorf("perfab: study has no failure block")
	}
	if st.Sys == nil {
		return nil, fmt.Errorf("perfab: study has no system")
	}
	if err := st.Sys.Validate(); err != nil {
		return nil, err
	}
	if err := st.Msg.Validate(); err != nil {
		return nil, err
	}
	C := st.Sys.NumClusters()
	if len(st.GroupOf) != C {
		return nil, fmt.Errorf("perfab: group map covers %d clusters, system has %d", len(st.GroupOf), C)
	}
	groups := 0
	for i, g := range st.GroupOf {
		if g < 0 {
			return nil, fmt.Errorf("perfab: cluster %d has negative group %d", i, g)
		}
		if g+1 > groups {
			groups = g + 1
		}
	}
	ev := &evaluator{
		st:        st,
		groupIdx:  make([][]int, groups),
		distCache: make(map[distCacheKey]*distEntry),
		icn2Cache: make(map[string]*distEntry),
	}
	for i, g := range st.GroupOf {
		ev.groupIdx[g] = append(ev.groupIdx[g], i)
	}
	shapes := make([]GroupShape, groups)
	for g, idx := range ev.groupIdx {
		if len(idx) == 0 {
			return nil, fmt.Errorf("perfab: group %d has no clusters", g)
		}
		n := st.Sys.Clusters[idx[0]].TreeLevels
		for _, c := range idx {
			if st.Sys.Clusters[c].TreeLevels != n {
				return nil, fmt.Errorf("perfab: group %d mixes tree heights %d and %d",
					g, n, st.Sys.Clusters[c].TreeLevels)
			}
		}
		shapes[g] = GroupShape{Count: len(idx), TreeLevels: n}
	}
	nc, err := st.Sys.ICN2Levels()
	if err != nil {
		return nil, err
	}
	if err := st.Block.Validate("performability", shapes, nc); err != nil {
		return nil, err
	}
	if ev.icn2Tree, err = topology.New(st.Sys.Ports, nc); err != nil {
		return nil, err
	}
	ev.groupTree = make([]*topology.Tree, groups)
	for g := range ev.groupTree {
		if ev.groupTree[g], err = topology.New(st.Sys.Ports, shapes[g].TreeLevels); err != nil {
			return nil, err
		}
	}
	ev.total = st.Sys.TotalNodes()

	// Compile the failure classes in declaration order: the failed-count
	// vector of every state indexes this list.
	b := st.Block
	add := func(c compClass) error {
		if c.count < 1 {
			return fmt.Errorf("perfab: class %s has no components", c.label)
		}
		c.dist = birthDeathDist(c.count, c.rate.MTTF, c.rate.MTTR, c.rate.Repairers)
		ev.classes = append(ev.classes, c)
		return nil
	}
	for i := range b.Nodes {
		f := &b.Nodes[i]
		g := f.Group
		if err := add(compClass{
			label: classLabel("nodes", "", g, -1), kind: kNodes, group: g, level: -1,
			count: len(ev.groupIdx[g]) * ev.groupTree[g].Nodes(), rate: f.RateSpec,
		}); err != nil {
			return nil, err
		}
	}
	for i := range b.Switches {
		f := &b.Switches[i]
		g := f.Group
		if err := add(compClass{
			label: classLabel("switches", f.Network, g, f.Level), kind: kSwitch,
			group: g, network: f.Network, level: f.Level,
			count: len(ev.groupIdx[g]) * ev.groupTree[g].SwitchesAtLevel(f.Level),
			rate:  f.RateSpec,
		}); err != nil {
			return nil, err
		}
	}
	for i := range b.ICN2Switches {
		f := &b.ICN2Switches[i]
		if err := add(compClass{
			label: classLabel("icn2Switches", "", -1, f.Level), kind: kICN2Switch,
			group: -1, level: f.Level, count: ev.icn2Tree.SwitchesAtLevel(f.Level),
			rate: f.RateSpec,
		}); err != nil {
			return nil, err
		}
	}
	for i := range b.Links {
		f := &b.Links[i]
		g := f.Group
		if err := add(compClass{
			label: classLabel("links", f.Network, g, -1), kind: kLink,
			group: g, network: f.Network, level: -1,
			count: len(ev.groupIdx[g]) * ev.groupTree[g].TotalLinks(),
			rate:  f.RateSpec,
		}); err != nil {
			return nil, err
		}
	}
	if b.ICN2Links != nil {
		if err := add(compClass{
			label: classLabel("icn2Links", "", -1, -1), kind: kICN2Link,
			group: -1, level: -1, count: ev.icn2Tree.TotalLinks(), rate: *b.ICN2Links,
		}); err != nil {
			return nil, err
		}
	}
	return ev, nil
}

// clusterState accumulates one cluster's damage during a state rebuild.
type clusterState struct {
	dead       bool
	leafFailed int // failed ICN1 leaf switches (strand their intervals)
	nodeFailed int // failed compute nodes among the remaining population
	intraCap   float64
	ecnCap     float64
}

// pool applies a lost-capacity pool to a factor: f failed of total
// components inflate the surviving channels' rate by total/(total−f); a
// fully failed pool kills the carrier.
func pool(factor *float64, dead *bool, total, f int) {
	if f <= 0 {
		return
	}
	if f >= total {
		*dead = true
		return
	}
	*factor *= float64(total) / float64(total-f)
}

// StateMetrics is one evaluated availability state.
type StateMetrics struct {
	// Weight is the state's probability mass (exact) or merged sample
	// weight (Monte Carlo).
	Weight float64 `json:"weight"`
	// Failed lists the failed-component counts per class, in report
	// class order.
	Failed []int `json:"failed"`
	// Up reports whether the degraded system still serves traffic.
	Up bool `json:"up"`
	// ServedFraction is surviving nodes / intact nodes.
	ServedFraction float64 `json:"servedFraction"`
	// SaturationLambda is the degraded saturation rate λ* (0 when down).
	SaturationLambda float64 `json:"saturationLambda"`
	// Capacity is λ* × surviving nodes: the aggregate message throughput
	// the degraded system sustains.
	Capacity float64 `json:"capacity"`
	// Latency is the mean latency at the probe rate; null when the
	// state is down or the probe saturates it.
	Latency *float64 `json:"latency"`
	// SLOViolation reports the state violating the SLO predicate.
	SLOViolation bool `json:"sloViolation"`
}

// evalState rebuilds and evaluates one availability state at the probe
// rate. It is safe for concurrent calls; all placements are canonical
// (balanced spreads), so the result is a pure function of (failed,
// probe).
func (ev *evaluator) evalState(failed []int, probe float64) StateMetrics {
	ar := ev.getArena()
	defer ev.arenas.Put(ar)
	C := ev.st.Sys.NumClusters()
	if cap(ar.cs) < C {
		ar.cs = make([]clusterState, C)
		ar.survivors = make([]int, C)
		ar.dists = make([][]float64, C)
		ar.mask = make([]bool, C)
	}
	cs := ar.cs[:C]
	for i := range cs {
		cs[i] = clusterState{intraCap: 1, ecnCap: 1}
	}
	icn2Cap := 1.0
	icn2Dead := false

	for ci := range ev.classes {
		cl := &ev.classes[ci]
		j := failed[ci]
		if j == 0 {
			continue
		}
		switch cl.kind {
		case kNodes:
			idx := ev.groupIdx[cl.group]
			for q, c := range idx {
				cs[c].nodeFailed += share(j, len(idx), q)
			}
		case kSwitch:
			idx := ev.groupIdx[cl.group]
			tree := ev.groupTree[cl.group]
			per := tree.SwitchesAtLevel(cl.level)
			leaf := cl.level == tree.N-1
			for q, c := range idx {
				f := share(j, len(idx), q)
				switch {
				case cl.network == NetICN1 && leaf:
					cs[c].leafFailed += f
				case cl.network == NetICN1:
					pool(&cs[c].intraCap, &cs[c].dead, per, f)
				default: // ECN1: capacity loss on the gateway fabric
					pool(&cs[c].ecnCap, &cs[c].dead, per, f)
				}
			}
		case kLink:
			idx := ev.groupIdx[cl.group]
			total := ev.groupTree[cl.group].TotalLinks()
			for q, c := range idx {
				f := share(j, len(idx), q)
				if cl.network == NetICN1 {
					pool(&cs[c].intraCap, &cs[c].dead, total, f)
				} else {
					pool(&cs[c].ecnCap, &cs[c].dead, total, f)
				}
			}
		case kICN2Switch:
			if cl.level == ev.icn2Tree.N-1 {
				// Failed ICN2 leaf switches disconnect their attached
				// clusters — the single switch of an n_c=1 tree
				// disconnects everything.
				intervals, width := ev.icn2Tree.LeafIntervals()
				for _, t := range spreadIdx(j, intervals) {
					for c := t * width; c < (t+1)*width && c < C; c++ {
						cs[c].dead = true
					}
				}
			} else {
				pool(&icn2Cap, &icn2Dead, ev.icn2Tree.SwitchesAtLevel(cl.level), j)
			}
		case kICN2Link:
			pool(&icn2Cap, &icn2Dead, ev.icn2Tree.TotalLinks(), j)
		}
	}

	// Resolve per-cluster survivors and distance distributions. Failed is
	// copied: the metrics outlive the call, and samplers reuse their
	// failed-vector buffer between states.
	m := StateMetrics{Failed: append([]int(nil), failed...)}
	survivors := ar.survivors[:C]
	dists := ar.dists[:C]
	clear(dists)
	served := 0
	aliveClusters := 0
	for c := 0; c < C; c++ {
		if icn2Dead {
			// No inter-cluster fabric left: conservatively, the system
			// is down (clusters cannot reach each other).
			cs[c].dead = true
		}
		if cs[c].dead {
			continue
		}
		g := ev.st.GroupOf[c]
		tree := ev.groupTree[g]
		intervals, width := tree.LeafIntervals()
		if cs[c].leafFailed >= intervals {
			cs[c].dead = true
			continue
		}
		afterLeaf := tree.Nodes() - cs[c].leafFailed*width
		if cs[c].nodeFailed >= afterLeaf {
			cs[c].dead = true
			continue
		}
		survivors[c] = afterLeaf - cs[c].nodeFailed
		if cs[c].leafFailed > 0 || cs[c].nodeFailed > 0 {
			dists[c] = ev.survivorDist(g, cs[c].leafFailed, cs[c].nodeFailed)
		}
		served += survivors[c]
		aliveClusters++
	}
	m.ServedFraction = float64(served) / float64(ev.total)

	if aliveClusters == 0 || served < 2 {
		m.SLOViolation = true
		return m
	}

	// Assemble the degraded system: the surviving clusters keep their
	// ICN2 leaf positions, so the ICN2 distance distribution is
	// re-derived over the alive positions when any cluster dropped. The
	// system and degradation skeletons live in the arena; the model built
	// from them does not outlive this call.
	sys := ar.sys
	sys.Name, sys.Ports, sys.ICN2 = ev.st.Sys.Name, ev.st.Sys.Ports, ev.st.Sys.ICN2
	sys.Clusters = sys.Clusters[:0]
	deg := ar.deg
	*deg = core.Degradation{ICN2Levels: ev.icn2Tree.N, ICN2Capacity: icn2Cap, Clusters: deg.Clusters[:0]}
	if aliveClusters < C {
		mask := ar.mask[:C]
		for c := 0; c < C; c++ {
			mask[c] = !cs[c].dead
		}
		deg.ICN2Dist = ev.icn2SurvivorDist(mask, ar)
	}
	for c := 0; c < C; c++ {
		if cs[c].dead {
			continue
		}
		sys.Clusters = append(sys.Clusters, ev.st.Sys.Clusters[c])
		deg.Clusters = append(deg.Clusters, core.ClusterDegradation{
			Nodes:         survivors[c],
			Dist:          dists[c],
			IntraCapacity: cs[c].intraCap,
			ECNCapacity:   cs[c].ecnCap,
		})
	}

	model, err := core.NewDegradedWith(sys, ev.st.Msg, ev.st.Opt, deg, ar.pre)
	if err != nil {
		// A state the model layer rejects (degenerate service times under
		// extreme capacity loss) counts as down.
		m.SLOViolation = true
		return m
	}
	m.Up = true
	m.SaturationLambda = model.SaturationPoint(1.0, 1e-4)
	m.Capacity = m.SaturationLambda * float64(served)
	res := model.Evaluate(probe)
	if res.Saturated || math.IsInf(res.MeanLatency, 0) || math.IsNaN(res.MeanLatency) {
		m.SLOViolation = true
	} else {
		l := res.MeanLatency
		m.Latency = &l
		if ev.slo.MaxLatency > 0 && l > ev.slo.MaxLatency {
			m.SLOViolation = true
		}
	}
	if ev.slo.MinServedFraction > 0 && m.ServedFraction < ev.slo.MinServedFraction {
		m.SLOViolation = true
	}
	return m
}

// survivorDist returns the cached survivor distance distribution of one
// group's canonical damage pattern: leafFailed whole leaf intervals
// spread evenly, then nodeFailed further nodes spread evenly over the
// remaining population. Concurrent misses on one key coalesce: exactly
// one caller runs the enumeration, the others block on its entry (the
// map lock is held only to install the entry, never during the
// computation).
func (ev *evaluator) survivorDist(group, leafFailed, nodeFailed int) []float64 {
	key := distCacheKey{group, leafFailed, nodeFailed}
	ev.mu.Lock()
	e, ok := ev.distCache[key]
	if !ok {
		e = &distEntry{}
		ev.distCache[key] = e
	}
	ev.mu.Unlock()
	e.once.Do(func() {
		ev.distComputes.Add(1)
		e.d = ev.computeDist(group, leafFailed, nodeFailed)
	})
	return e.d
}

// icn2SurvivorDist returns the cached ICN2 survivor distance
// distribution for one alive-cluster mask, so states with the same
// surviving clusters share one enumeration. Cached slices are immutable:
// degraded models adopt them without copying.
func (ev *evaluator) icn2SurvivorDist(mask []bool, ar *stateArena) []float64 {
	key := ar.maskKey[:0]
	for _, a := range mask {
		b := byte(0)
		if a {
			b = 1
		}
		key = append(key, b)
	}
	ar.maskKey = key
	ev.mu.Lock()
	e, ok := ev.icn2Cache[string(key)]
	if !ok {
		e = &distEntry{}
		ev.icn2Cache[string(key)] = e
	}
	ev.mu.Unlock()
	e.once.Do(func() {
		e.d = ev.icn2Tree.SurvivorDistanceDistribution(mask)
	})
	return e.d
}

// computeDist derives one canonical damage pattern's survivor distance
// distribution from scratch. Cached slices are immutable once stored:
// degraded models adopt them without copying.
func (ev *evaluator) computeDist(group, leafFailed, nodeFailed int) []float64 {
	tree := ev.groupTree[group]
	alive := make([]bool, tree.Nodes())
	for i := range alive {
		alive[i] = true
	}
	intervals, width := tree.LeafIntervals()
	for _, t := range spreadIdx(leafFailed, intervals) {
		for i := t * width; i < (t+1)*width; i++ {
			alive[i] = false
		}
	}
	if nodeFailed > 0 {
		live := make([]int, 0, tree.Nodes()-leafFailed*width)
		for i, a := range alive {
			if a {
				live = append(live, i)
			}
		}
		for _, t := range spreadIdx(nodeFailed, len(live)) {
			alive[live[t]] = false
		}
	}
	return tree.SurvivorDistanceDistribution(alive)
}
