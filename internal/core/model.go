// Package core implements the paper's contribution: the analytical mean
// message latency model for heterogeneous cluster-of-clusters systems
// (Eqs 1–39 of Javadi et al., CLUSTER 2006).
//
// A message from cluster i stays inside the cluster with probability
// 1−U^(i) and crosses the inter-cluster networks otherwise (Eq 1); the two
// branches are modelled separately (Sections 3.1 and 3.2 of the paper) and
// combined into a system-wide weighted mean (Eq 3).
//
// The scanned source of the paper leaves a few arrival-rate symbols
// ambiguous, so the model implements two variants (see Options.Variant;
// the examples/scenarios/ablation campaign compares them with the other
// Options switches):
//
//   - Reconstructed (default): per-channel rates aggregate the whole
//     network's traffic, while each node's source queue sees only that
//     node's own arrival stream, and each concentrator/dispatcher sees its
//     cluster-pair's averaged per-gateway rate. This reading reproduces
//     the saturation points of the paper's Figs 3–7.
//   - PaperLiteral: the source-queue M/G/1s use the printed
//     network-aggregate rates λ_I1 (Eq 7) and λ_E1 (Eq 22) verbatim.
package core

import (
	"fmt"
	"math"

	"github.com/ccnet/ccnet/internal/cluster"
	"github.com/ccnet/ccnet/internal/netchar"
	"github.com/ccnet/ccnet/internal/queueing"
)

// Variant selects the arrival-rate reading for the source queues.
type Variant int

const (
	// Reconstructed is the physically consistent reading (default).
	Reconstructed Variant = iota
	// PaperLiteral uses the network-aggregate rates exactly as printed.
	PaperLiteral
)

func (v Variant) String() string {
	switch v {
	case Reconstructed:
		return "reconstructed"
	case PaperLiteral:
		return "paper-literal"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Options tune documented model ambiguities; the zero value is the
// default configuration used to regenerate the paper's figures.
type Options struct {
	Variant Variant

	// InvertRelaxFactor flips Eq 28's relaxing factor from β_I2/β_E1
	// (waits shrink when ICN2 is faster, the text's reading) to β_E1/β_I2.
	InvertRelaxFactor bool

	// CalibratedECNCrossing replaces the paper's r-link ECN1-crossing
	// distribution with the 2r-link distribution induced by a concrete
	// leaf-attached gateway (what the simulator builds), for
	// model-vs-simulator ablation.
	CalibratedECNCrossing bool

	// GatewayStoreAndForward adds the two message serializations that a
	// physically realizable store-and-forward gateway introduces
	// (M·t_cs^{I2} at the concentrator, M·t_cs^{E1(j)} at the
	// dispatcher). The paper's Eq 32 treats the three networks as one
	// cut-through pipe while simultaneously assuming full-message C/D
	// service in Eqs 36–37 — two readings no single hardware realizes
	// (finding F-A1, written down at the scenario package's
	// TestFigureLightLoadAgreement, which pins it). Enable this to
	// compare the model against the simulator's store-and-forward
	// gateways.
	GatewayStoreAndForward bool

	// UseLocality extends the model to the cluster-local traffic pattern
	// the paper names as future work: each node addresses its own cluster
	// (uniformly) with probability LocalityFraction and the other
	// clusters' nodes uniformly otherwise. The outgoing probability of
	// Eq 2 becomes U^(i) = 1 − LocalityFraction for every cluster; all
	// within-network distance distributions are unchanged (destinations
	// stay uniform within their cluster). Matches traffic.ClusterLocal in
	// the simulator.
	UseLocality      bool
	LocalityFraction float64
}

// Model evaluates the analytical latency for one system and message
// geometry across traffic rates. Everything that does not depend on the
// traffic rate λ — distance distributions, stage-chain shapes, the
// λ-independent tail sums of Eqs 19/34, per-channel rate coefficients —
// is computed once in New, so Evaluate's per-λ path is pure arithmetic
// over precomputed tables. A Model is immutable after New (one built
// through a Precompute handle until that handle's next build);
// concurrent Evaluate calls are safe.
type Model struct {
	Sys *cluster.System
	Msg netchar.MessageSpec
	Opt Options

	nc         int       // ICN2 tree height
	pI2        []float64 // Eq 6 distribution for the ICN2 tree
	meanI2     float64   // Eq 8 mean link count for the ICN2 tree
	tcsI2      float64   // ICN2 switch-channel service time
	icn2Cap    float64   // ICN2 per-channel rate inflation (1 when intact)
	totalNodes float64   // Σ N_i over (surviving) populations
	cl         []clusterDerived

	// Clusters with identical (TreeLevels, ICN1, ECN1) are analytically
	// indistinguishable, so pair terms are computed once per ordered
	// class pair and reused — Table 1's 32-cluster system has only three
	// classes, collapsing 992 pair evaluations per λ into at most 9.
	classOf  []int // cluster index → class index
	classRep []int // class index → first cluster of the class
	nClasses int
	pairs    []pairClass // [src*nClasses+dst]; zero when the pair cannot occur
}

// clusterDerived caches per-cluster constants.
type clusterDerived struct {
	n     int       // n_i
	nodes int       // N_i
	u     float64   // U^(i)
	p     []float64 // Eq 6 distribution for the cluster's trees
	dMean float64   // Eq 8/9 mean link count

	tcnI1, tcsI1 float64
	tcnE1, tcsE1 float64

	eIn      float64  // Eq 19 tail pipeline time (λ-independent)
	etaI1Cof float64  // Eq 10 per-channel rate / λ: (1−U)·dMean/(4n)
	ecnCap   float64  // ECN1 per-channel rate inflation (1 when intact)
	distID   *float64 // degraded-distribution identity (nil when Eq 6)
}

// New validates the system and precomputes per-cluster constants.
func New(sys *cluster.System, msg netchar.MessageSpec, opt Options) (*Model, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if err := msg.Validate(); err != nil {
		return nil, err
	}
	return newModel(sys, msg, opt, nil, nil)
}

// newModel is the shared constructor behind New and NewDegraded: every
// λ-independent quantity is precomputed here, from the intact closed
// forms or from the degradation's overrides. A non-nil pre reuses
// cached tables across builds (see Precompute).
func newModel(sys *cluster.System, msg netchar.MessageSpec, opt Options, deg *Degradation, pre *Precompute) (*Model, error) {
	var nc int
	if deg != nil {
		nc = deg.ICN2Levels
	} else {
		var err error
		if nc, err = sys.ICN2Levels(); err != nil {
			return nil, err
		}
	}
	if opt.UseLocality && (opt.LocalityFraction < 0 || opt.LocalityFraction >= 1 || math.IsNaN(opt.LocalityFraction)) {
		return nil, fmt.Errorf("core: locality fraction %v outside [0,1)", opt.LocalityFraction)
	}
	m := &Model{Sys: sys, Msg: msg, Opt: opt, nc: nc, icn2Cap: 1}
	if pre != nil {
		m.pI2 = pre.distanceDist(sys.K(), nc)
	} else {
		m.pI2 = distanceDist(sys.K(), nc)
	}
	if deg != nil {
		m.icn2Cap = capacity(deg.ICN2Capacity)
		if deg.ICN2Dist != nil {
			if pre != nil {
				m.pI2 = deg.ICN2Dist
			} else {
				m.pI2 = append([]float64(nil), deg.ICN2Dist...)
			}
		}
	}
	for h, p := range m.pI2 {
		m.meanI2 += 2 * float64(h+1) * p
	}
	m.tcsI2 = sys.ICN2.SwitchChannelTime(msg.FlitBytes)
	m.cl = make([]clusterDerived, sys.NumClusters())

	// Populations: intact systems derive N_i from the tree shape; a
	// degradation carries the surviving counts, and U^(i) (Eq 2) follows
	// from the surviving totals.
	total := 0
	for i := range m.cl {
		d := &m.cl[i]
		if deg != nil {
			d.nodes = deg.Clusters[i].Nodes
		} else {
			d.nodes = sys.ClusterNodes(i)
		}
		total += d.nodes
	}
	m.totalNodes = float64(total)

	for i := range m.cl {
		cc := sys.Clusters[i]
		d := &m.cl[i]
		d.n = cc.TreeLevels
		d.ecnCap = 1
		if total > 1 {
			d.u = 1 - float64(d.nodes-1)/float64(total-1)
		}
		if opt.UseLocality {
			d.u = 1 - opt.LocalityFraction
		}
		if pre != nil {
			d.p = pre.distanceDist(sys.K(), cc.TreeLevels)
		} else {
			d.p = distanceDist(sys.K(), cc.TreeLevels)
		}
		intraCap := 1.0
		if deg != nil {
			cd := &deg.Clusters[i]
			if cd.Dist != nil {
				d.distID = &cd.Dist[0]
				if pre != nil {
					d.p = cd.Dist
				} else {
					d.p = append([]float64(nil), cd.Dist...)
				}
			}
			intraCap = capacity(cd.IntraCapacity)
			d.ecnCap = capacity(cd.ECNCapacity)
		}
		for h, ph := range d.p {
			d.dMean += 2 * float64(h+1) * ph
		}
		d.tcnI1 = cc.ICN1.NodeChannelTime(msg.FlitBytes)
		d.tcsI1 = cc.ICN1.SwitchChannelTime(msg.FlitBytes)
		d.tcnE1 = cc.ECN1.NodeChannelTime(msg.FlitBytes)
		d.tcsE1 = cc.ECN1.SwitchChannelTime(msg.FlitBytes)
		// Eq 19: the tail pipeline time depends only on geometry.
		for h := 1; h <= d.n; h++ {
			d.eIn += d.p[h-1] * (2*float64(h-1)*d.tcsI1 + d.tcnI1)
		}
		d.etaI1Cof = intraCap * (1 - d.u) * d.dMean / (4 * float64(d.n))
	}
	m.classifyClusters()
	m.precomputePairs(pre)
	return m, nil
}

// classKey groups analytically identical clusters; see classifyClusters.
// Distance-distribution overrides key by slice identity — distinct
// slices with equal contents split a class, which duplicates work but
// never changes a computed value.
type classKey struct {
	n          int
	icn1, ecn1 netchar.Characteristics
	nodes      int
	etaCof     float64 // folds in U and any intra-capacity factor
	ecnCap     float64
	distID     *float64
}

// classifyClusters groups analytically identical clusters: same tree
// height, same ICN1/ECN1 network classes and same degraded overrides
// (population, distance distribution, capacity factors) imply identical
// derived constants (U^(i) follows from N_i and the shared total), hence
// identical intra terms and pair terms. On intact systems the population
// and overrides follow from the shape, so the key reduces to the
// original (height, networks) triple. A cluster joins the first class
// whose representative's key equals its own, so class ids are assigned
// in first-occurrence order.
func (m *Model) classifyClusters() {
	// classOf and classRep (≤ len(cl) entries) share one allocation.
	buf := make([]int, len(m.cl), 2*len(m.cl))
	m.classOf = buf
	m.classRep = buf[len(m.cl):len(m.cl):cap(buf)]
	var prev classKey
	for i := range m.cl {
		c := m.keyOf(i)
		// Identical clusters come in runs (group templates), so compare
		// against the previous cluster before the representatives.
		id := 0
		if i > 0 && c == prev {
			id = m.classOf[i-1]
		} else {
			for id < len(m.classRep) && m.keyOf(m.classRep[id]) != c {
				id++
			}
			if id == len(m.classRep) {
				m.classRep = append(m.classRep, i)
			}
		}
		m.classOf[i] = id
		prev = c
	}
	m.nClasses = len(m.classRep)
}

func (m *Model) keyOf(i int) classKey {
	cc := m.Sys.Clusters[i]
	d := &m.cl[i]
	return classKey{n: cc.TreeLevels, icn1: cc.ICN1, ecn1: cc.ECN1,
		nodes: d.nodes, etaCof: d.etaI1Cof, ecnCap: d.ecnCap, distID: d.distID}
}

// distanceDist is Eq 6 as pure arithmetic (k = m/2, tree height n); the
// topology package's enumerated distribution matches it exactly (tested).
func distanceDist(k, n int) []float64 {
	kf := float64(k)
	nodes := 2 * math.Pow(kf, float64(n))
	total := nodes - 1
	p := make([]float64, n)
	kPow := 1.0
	for h := 1; h <= n-1; h++ {
		p[h-1] = (kf - 1) * kPow / total
		kPow *= kf
	}
	p[n-1] = (2*kf - 1) * kPow / total
	return p
}

// ClusterResult decomposes the latency seen from one cluster.
type ClusterResult struct {
	U float64 // outgoing probability (Eq 2)

	// Intra-cluster terms (Eq 4).
	WIn, TIn, EIn, LIn float64

	// Inter-cluster terms (Eqs 32, 35, 38, 39).
	WEx, TEx, EEx float64 // averaged over destination clusters
	WD            float64 // concentrator/dispatcher waits (Eq 38)
	LOut          float64 // Eq 39

	Mean float64 // ℓ^(i), Eq 1
}

// Result is a full model evaluation at one traffic rate.
type Result struct {
	Lambda      float64 // λ_g, messages per node per time unit
	MeanLatency float64 // Eq 3; +Inf when saturated
	Saturated   bool    // some queue or channel exceeded capacity
	PerCluster  []ClusterResult

	// MeanIntra and MeanInter decompose the system mean by branch,
	// weighted by each branch's message population (cluster i generates
	// intra messages in proportion N_i(1−U_i) and inter in proportion
	// N_i·U_i). They correspond to the simulator's Intra/Inter
	// accumulators.
	MeanIntra, MeanInter float64
}

// Evaluate computes the mean message latency at per-node generation rate
// lambdaG. A saturated system yields Saturated=true and +Inf latency.
func (m *Model) Evaluate(lambdaG float64) *Result {
	if lambdaG < 0 || math.IsNaN(lambdaG) {
		panic(fmt.Sprintf("core: invalid traffic rate %v", lambdaG))
	}
	res := &Result{Lambda: lambdaG, PerCluster: make([]ClusterResult, len(m.cl))}
	totalNodes := m.totalNodes

	// Pair terms depend only on the source and destination cluster
	// classes, so each distinct class pair is evaluated once per λ and
	// shared across every (i,j) with those classes.
	scratch := newPairScratch(m.nClasses)

	var intraWeight, interWeight float64
	for i := range m.cl {
		cr := &res.PerCluster[i]
		cr.U = m.cl[i].u

		m.intraCluster(lambdaG, i, cr)
		m.interCluster(lambdaG, i, cr, scratch)

		cr.Mean = (1-cr.U)*cr.LIn + cr.U*cr.LOut
		if math.IsInf(cr.LIn, 1) || math.IsInf(cr.LOut, 1) {
			res.Saturated = true
		}
		res.MeanLatency += float64(m.cl[i].nodes) / totalNodes * cr.Mean

		wIn := float64(m.cl[i].nodes) * (1 - cr.U)
		wOut := float64(m.cl[i].nodes) * cr.U
		res.MeanIntra += wIn * cr.LIn
		res.MeanInter += wOut * cr.LOut
		intraWeight += wIn
		interWeight += wOut
	}
	if intraWeight > 0 {
		res.MeanIntra /= intraWeight
	}
	if interWeight > 0 {
		res.MeanInter /= interWeight
	}
	if res.Saturated {
		res.MeanLatency = math.Inf(1)
		res.MeanIntra = math.Inf(1)
		res.MeanInter = math.Inf(1)
	}
	return res
}

// stageChain runs the backward stage recursion shared by Eqs 13–14 and
// 26–29: stage K−1 has service M·lastService and no downstream wait; every
// earlier stage k has service M·service(k) plus the waits of all later
// stages, and contributes W_k = ½·eta(k)·T_k². It returns T_0.
func stageChain(k int, flits float64, lastService float64,
	service func(int) float64, eta func(int) float64) float64 {
	t := flits * lastService
	wSum := 0.5 * eta(k-1) * t * t
	for s := k - 2; s >= 0; s-- {
		t = flits*service(s) + wSum
		w := 0.5 * eta(s) * t * t
		wSum += w
	}
	return t
}

// stageChainUniform is stageChain specialized to the intra-cluster case
// (Eqs 13–14): every earlier stage shares one service time and one
// per-channel rate. Identical arithmetic, no closures — Evaluate's hot
// path allocates nothing here.
func stageChainUniform(k int, flits, lastService, service, eta float64) float64 {
	t := flits * lastService
	wSum := 0.5 * eta * t * t
	for s := k - 2; s >= 0; s-- {
		t = flits*service + wSum
		wSum += 0.5 * eta * t * t
	}
	return t
}

// stageChain3 is stageChain specialized to the inter-cluster merged unit
// (Eqs 26–29): stages [0,lo) run on the source ECN1, [lo,hi) on the
// ICN2 (eta already includes Eq 28's relaxing factor), and [hi,k−1) on
// the destination ECN1. Identical arithmetic to the closure form. It
// evaluates one cell on its own; the model takes every cell from
// cellLatencies' shared prefixes instead, and the property tests hold
// those to this reference bit for bit.
func stageChain3(k, lo, hi int, flits, lastService float64,
	svcA, svcB, svcC, etaA, etaB, etaC float64) float64 {
	etaLast := etaC
	switch {
	case k-1 < lo:
		etaLast = etaA
	case k-1 < hi:
		etaLast = etaB
	}
	t := flits * lastService
	wSum := 0.5 * etaLast * t * t
	for s := k - 2; s >= 0; s-- {
		var sv, et float64
		switch {
		case s < lo:
			sv, et = svcA, etaA
		case s < hi:
			sv, et = svcB, etaB
		default:
			sv, et = svcC, etaC
		}
		t = flits*sv + wSum
		wSum += 0.5 * et * t * t
	}
	return t
}

// intraCluster fills the Eq 4 terms (Section 3.1).
func (m *Model) intraCluster(lambdaG float64, i int, cr *ClusterResult) {
	q := m.intraMG1(lambdaG, i)
	cr.TIn = q.MeanService
	// Eq 19: tail pipeline time (precomputed in New).
	cr.EIn = m.cl[i].eIn
	w, err := q.Wait()
	if err != nil {
		cr.WIn = math.Inf(1)
		cr.LIn = math.Inf(1)
		return
	}
	cr.WIn = w
	cr.LIn = cr.WIn + cr.TIn + cr.EIn
}

// intraMG1 is cluster i's source queue at lambdaG (Eqs 15–18); its mean
// service is the mean network latency T_in (Eqs 5, 13, 14).
func (m *Model) intraMG1(lambdaG float64, i int) queueing.MG1 {
	d := &m.cl[i]
	M := float64(m.Msg.Flits)

	// Eq 7: traffic offered to ICN1(i); Eq 10: per-channel rate.
	etaI1 := lambdaG * d.etaI1Cof
	var tIn float64
	for h := 1; h <= d.n; h++ {
		k := 2*h - 1
		var th float64
		if k == 1 {
			th = M * d.tcnI1
		} else {
			th = stageChainUniform(k, M, d.tcnI1, d.tcsI1, etaI1)
		}
		tIn += d.p[h-1] * th
	}
	srcRate := lambdaG * (1 - d.u)
	if m.Opt.Variant == PaperLiteral {
		// Eq 7's network-aggregate rate, as printed.
		srcRate = float64(d.nodes) * lambdaG * (1 - d.u)
	}
	sigma := tIn - M*d.tcnI1
	return queueing.MG1{Lambda: srcRate, MeanService: tIn, VarService: sigma * sigma}
}
