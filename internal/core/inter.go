package core

import (
	"fmt"
	"math"

	"github.com/ccnet/ccnet/internal/queueing"
)

// PairResult decomposes the inter-cluster latency of one ordered cluster
// pair (i → j): the terms of Eqs 31–34 plus the concentrator/dispatcher
// wait (Eqs 36–37). LEx excludes the C/D waits, matching Eq 32; Total adds
// 2·WC per Eq 38/39.
type PairResult struct {
	Src, Dst  int
	WEx       float64 // Eq 31: source-queue wait
	TEx       float64 // Eq 20/29: merged-unit network latency
	EEx       float64 // Eq 33/34: tail pipeline time
	SF        float64 // gateway serialization term (0 unless GatewayStoreAndForward)
	WC        float64 // Eq 37: one C/D buffer wait
	Saturated bool
}

// LEx returns Eq 32's pair latency (plus the optional S&F term).
func (p *PairResult) LEx() float64 { return p.WEx + p.TEx + p.EEx + p.SF }

// Total returns the pair latency including both gateway queue waits.
func (p *PairResult) Total() float64 { return p.LEx() + 2*p.WC }

// pairClass caches everything about an ordered class pair that does not
// depend on λ: the crossing-length cells, the Eq 33/34 tail sum, the
// per-channel rate coefficients of Eqs 22–25 (rates are linear in λ),
// Eq 28's relaxing factor, and the service-time constants.
type pairClass struct {
	// cells[i] is the probability pr·pv·pl of the i-th (r, v, l)
	// crossing-length combination of the merged ECN1(i)→ICN2→ECN1(j)
	// unit, in (r, v, l) lexicographic order; nil when the ordered pair
	// cannot occur.
	cells  []float64
	nr, nv int     // crossing-length ranges
	eex    float64 // Eq 33/34 tail sum (λ-independent)
	sf     float64 // gateway serialization term (0 unless S&F)

	lamE1Cof  float64 // Eq 22: λ_E1 = λ·lamE1Cof
	etaSrcCof float64 // Eq 24: η_E1(src) = λ·etaSrcCof
	etaDstCof float64 // Eq 25: η_E1(dst) = λ·etaDstCof
	etaI2Cof  float64 // Eq 23/25: η_I2·δ = λ·etaI2Cof (relax factor folded in)
	srcCof    float64 // Eq 31 source-queue rate = λ·srcCof
	wcCof     float64 // Eq 36 C/D arrival rate = λ·wcCof

	tcsE1Src, tcsE1Dst float64
	tcnE1Src, tcnE1Dst float64
	varCD              float64 // Eq 37 service variance (λ-independent)
}

// precomputePairs fills m.pairs for every ordered class pair that can
// occur (src ≠ dst cluster; a class pairs with itself only when it has
// at least two members). The pair classes' cells are carved from one
// slab: the handle's when there is one, which its next build reuses.
func (m *Model) precomputePairs(pre *Precompute) {
	members := make([]int, m.nClasses)
	for _, c := range m.classOf {
		members[c]++
	}
	total := 0
	for a, i := range m.classRep {
		for b, j := range m.classRep {
			if a != b || members[a] >= 2 {
				total += m.cl[i].n * m.cl[j].n * m.nc
			}
		}
	}
	var slab []float64
	if pre != nil {
		if cap(pre.cells) < total {
			pre.cells = make([]float64, total)
		}
		slab = pre.cells[:total]
	} else {
		slab = make([]float64, total)
	}
	m.pairs = make([]pairClass, m.nClasses*m.nClasses)
	for a, i := range m.classRep {
		for b, j := range m.classRep {
			if a == b && members[a] < 2 {
				continue // no ordered pair of distinct clusters exists
			}
			n := m.cl[i].n * m.cl[j].n * m.nc
			m.pairs[a*m.nClasses+b] = m.buildPairClass(i, j, slab[:0:n])
			slab = slab[n:]
		}
	}
}

// buildPairClass derives the λ-independent pair terms from a
// representative cluster pair (i, j) of the two classes, appending the
// cells to cells (capacity n_i·n_j·n_c).
func (m *Model) buildPairClass(i, j int, cells []float64) pairClass {
	src := &m.cl[i]
	dst := &m.cl[j]
	M := float64(m.Msg.Flits)

	pc := pairClass{
		nr:       src.n,
		nv:       dst.n,
		cells:    cells,
		tcsE1Src: src.tcsE1,
		tcsE1Dst: dst.tcsE1,
		tcnE1Src: src.tcnE1,
		tcnE1Dst: dst.tcnE1,
	}

	// Eq 28: relaxing factor. The text says entering a faster ICN2
	// *decreases* the waiting "proportional to the capacity", hence
	// β_I2/β_E1 by default.
	delta := m.Sys.ICN2.Beta() / m.Sys.Clusters[i].ECN1.Beta()
	if m.Opt.InvertRelaxFactor {
		delta = 1 / delta
	}

	// Eq 22: traffic carried by the ECN1 networks of the (i,j) pair,
	// per unit λ; Eq 23 (reconstructed): average per-gateway rate.
	pc.lamE1Cof = float64(src.nodes)*src.u + float64(dst.nodes)*dst.u

	// Eqs 24–25: per-channel rates per unit λ. Degraded networks carry
	// their traffic on fewer channels, so the lost-capacity factors
	// inflate the rates (the factors are 1 on intact systems).
	pc.etaSrcCof = pc.lamE1Cof * src.dMean / (4 * float64(src.n) * float64(src.nodes))
	pc.etaDstCof = pc.lamE1Cof * dst.dMean / (4 * float64(dst.n) * float64(dst.nodes))
	if m.Opt.Variant == PaperLiteral {
		// The paper's Eq 24 derives one rate from the source side.
		pc.etaDstCof = pc.etaSrcCof
	}
	pc.etaSrcCof *= src.ecnCap
	pc.etaDstCof *= dst.ecnCap
	pc.etaI2Cof = (pc.lamE1Cof / 2) * m.meanI2 / (4 * float64(m.nc)) * delta * m.icn2Cap

	// Eq 31: source queue of the inter-cluster branch.
	pc.srcCof = src.u
	if m.Opt.Variant == PaperLiteral {
		pc.srcCof = pc.lamE1Cof
	}
	// Eqs 36–37: concentrate/dispatch buffers.
	pc.wcCof = pc.lamE1Cof / 2
	sigmaCD := M*m.tcsI2 - M*src.tcsE1
	pc.varCD = sigmaCD * sigmaCD

	if m.Opt.GatewayStoreAndForward {
		// Serialization of the full message at each gateway buffer.
		pc.sf = M * (m.tcsI2 + dst.tcsE1)
	}

	// Eq 21's crossing-length distribution and the Eq 33/34 tail sum
	// over it.
	for r := 1; r <= src.n; r++ {
		pr := src.p[r-1]
		rLinks := r
		if m.Opt.CalibratedECNCrossing {
			rLinks = 2 * r
		}
		for v := 1; v <= dst.n; v++ {
			pv := dst.p[v-1]
			vLinks := v
			if m.Opt.CalibratedECNCrossing {
				vLinks = 2 * v
			}
			for l := 1; l <= m.nc; l++ {
				p := pr * pv * m.pI2[l-1]
				pc.cells = append(pc.cells, p)
				// Eq 34: tail time across the three networks.
				pc.eex += p * (float64(rLinks-1)*src.tcsE1 +
					float64(vLinks-1)*dst.tcsE1 +
					2*float64(l)*m.tcsI2 + dst.tcnE1)
			}
		}
	}
	return pc
}

// cellBufLen sizes cellBuf. It covers every pair class of the paper's
// systems (N=544 peaks at 5·5·3 = 75 cells); a larger class takes a heap
// buffer of its own size and the same arithmetic.
const cellBufLen = 128

// cellBuf is the scratch cellLatencies fills. Evaluate and each run of
// saturation probes hold one on the stack for every pair class they
// visit, so it is zeroed once per call rather than once per pair.
type cellBuf [cellBufLen]float64

// cellLatencies fills ts[i] with cell i's merged-unit latency — the
// value stageChain3 returns for that cell, computed with the shared
// backward prefix factored out. Every cell's recurrence starts from the
// destination end with t = M·t_cn^{E1(j)}, runs v−1 destination steps,
// 2l−1 ICN2 steps, then r source steps; cells that share (v, l) differ
// only in how many source steps follow, so one chain per (v, l) captures
// t after each additional source step. The split is at step boundaries
// of the identical sequential recurrence, so each ts[i] is bit-identical
// to the standalone call; callers keep their original summation order.
func (m *Model) cellLatencies(pc *pairClass, etaSrc, etaI2, etaDst float64, ts []float64) {
	M := float64(m.Msg.Flits)
	mult := 1
	if m.Opt.CalibratedECNCrossing {
		mult = 2
	}
	stride := pc.nv * m.nc
	for v := 1; v <= pc.nv; v++ {
		vSteps := v*mult - 1
		for l := 1; l <= m.nc; l++ {
			t := M * pc.tcnE1Dst
			wSum := 0.5 * etaDst * t * t
			for s := 0; s < vSteps; s++ {
				t = M*pc.tcsE1Dst + wSum
				wSum += 0.5 * etaDst * t * t
			}
			for s := 0; s < 2*l-1; s++ {
				t = M*m.tcsI2 + wSum
				wSum += 0.5 * etaI2 * t * t
			}
			idx := (v-1)*m.nc + (l - 1)
			for r := 1; r <= pc.nr; r++ {
				for s := 0; s < mult; s++ {
					t = M*pc.tcsE1Src + wSum
					wSum += 0.5 * etaSrc * t * t
				}
				ts[idx] = t
				idx += stride
			}
		}
	}
}

// crossingLatency returns Eqs 20–21, 26–30 at lambdaG: the merged-unit
// latency averaged over pc's (r, v, l) crossing-length cells, summed in
// cell order, with buf as the cell scratch. Eq 28's relaxing factor is
// folded into the ICN2 rate.
func (m *Model) crossingLatency(pc *pairClass, lambdaG float64, buf *cellBuf) float64 {
	ts := buf[:]
	if len(pc.cells) > len(ts) {
		ts = make([]float64, len(pc.cells))
	}
	m.cellLatencies(pc, lambdaG*pc.etaSrcCof, lambdaG*pc.etaI2Cof, lambdaG*pc.etaDstCof, ts)
	var tEx float64
	for i, p := range pc.cells {
		tEx += p * ts[i]
	}
	return tEx
}

// srcMG1 is a class pair's inter source queue at lambdaG (Eq 31), whose
// mean service is the merged-unit latency tEx.
func (m *Model) srcMG1(lambdaG float64, pc *pairClass, tEx float64) queueing.MG1 {
	sigma := tEx - float64(m.Msg.Flits)*pc.tcnE1Src
	return queueing.MG1{Lambda: lambdaG * pc.srcCof, MeanService: tEx, VarService: sigma * sigma}
}

// cdMG1 is a class pair's concentrate/dispatch buffer queue at lambdaG
// (Eqs 36–37), service M·t_cs^{I2}.
func (m *Model) cdMG1(lambdaG float64, pc *pairClass) queueing.MG1 {
	return queueing.MG1{Lambda: lambdaG * pc.wcCof, MeanService: float64(m.Msg.Flits) * m.tcsI2, VarService: pc.varCD}
}

// PairLatency evaluates the inter-cluster latency of the ordered pair
// (i → j) at rate lambdaG — the analytical counterpart of the trace
// summary's per-pair statistics. It panics on out-of-range or equal
// indices.
func (m *Model) PairLatency(lambdaG float64, i, j int) *PairResult {
	if i == j || i < 0 || j < 0 || i >= len(m.cl) || j >= len(m.cl) {
		panic(fmt.Sprintf("core: invalid cluster pair (%d,%d)", i, j))
	}
	if lambdaG < 0 || math.IsNaN(lambdaG) {
		panic(fmt.Sprintf("core: invalid traffic rate %v", lambdaG))
	}
	res := &PairResult{}
	var buf cellBuf
	m.pairLatency(lambdaG, m.classOf[i]*m.nClasses+m.classOf[j], res, &buf)
	res.Src, res.Dst = i, j
	return res
}

// pairLatency computes the Eqs 20–37 terms for one ordered class pair
// into res (Src/Dst are left for the caller), with buf as the cell
// scratch. The per-λ work is pure arithmetic over the precomputed
// pairClass tables.
func (m *Model) pairLatency(lambdaG float64, classPair int, res *PairResult, buf *cellBuf) {
	pc := &m.pairs[classPair]
	*res = PairResult{EEx: pc.eex, SF: pc.sf}
	res.TEx = m.crossingLatency(pc, lambdaG, buf)

	wEx, err := m.srcMG1(lambdaG, pc, res.TEx).Wait()
	if err != nil {
		res.Saturated = true
	}
	res.WEx = wEx

	wc, errCD := m.cdMG1(lambdaG, pc).Wait()
	if errCD != nil {
		res.Saturated = true
	}
	res.WC = wc
}

// pairScratch holds one λ's class-pair evaluations so every (i,j) with
// the same classes shares one computation, and the cell scratch those
// evaluations share.
type pairScratch struct {
	res   []PairResult
	done  []bool
	cells cellBuf
}

func newPairScratch(nClasses int) *pairScratch {
	return &pairScratch{
		res:  make([]PairResult, nClasses*nClasses),
		done: make([]bool, nClasses*nClasses),
	}
}

// interCluster fills the Eq 39 terms (Section 3.2): the merged
// ECN1(i)→ICN2→ECN1(j) wormhole unit (Eqs 20–34), the source queue
// (Eq 31), and the concentrator/dispatcher queues (Eqs 36–38), averaged
// over destination clusters (Eqs 35, 38).
func (m *Model) interCluster(lambdaG float64, i int, cr *ClusterResult, scratch *pairScratch) {
	C := len(m.cl)
	if C < 2 {
		// A degraded system reduced to one cluster has no inter-cluster
		// traffic (U^(i) is 0 there); the terms stay zero.
		return
	}
	base := m.classOf[i] * m.nClasses
	var sumLEx, sumWd float64
	saturated := false

	for j := 0; j < C; j++ {
		if j == i {
			continue
		}
		cp := base + m.classOf[j]
		pr := &scratch.res[cp]
		if !scratch.done[cp] {
			m.pairLatency(lambdaG, cp, pr, &scratch.cells)
			scratch.done[cp] = true
		}
		if pr.Saturated {
			saturated = true
		}
		sumLEx += pr.LEx()
		sumWd += 2 * pr.WC // Eq 38: concentrate + dispatch
		cr.TEx += pr.TEx / float64(C-1)
		cr.EEx += pr.EEx / float64(C-1)
		cr.WEx += pr.WEx / float64(C-1)
	}

	if saturated {
		cr.LOut = math.Inf(1)
		cr.WD = math.Inf(1)
		return
	}
	// Eqs 35, 38, 39.
	cr.WD = sumWd / float64(C-1)
	cr.LOut = sumLEx/float64(C-1) + cr.WD
}
