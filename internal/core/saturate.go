package core

import (
	"fmt"
	"math"

	"github.com/ccnet/ccnet/internal/queueing"
)

// Saturated reports whether the system is saturated at per-node rate
// lambdaG — exactly Evaluate(lambdaG).Saturated, decided without
// building a Result. Saturation is purely a stability property of the
// model's M/G/1 queues (intra source queues, inter source queues, C/D
// buffer queues), each of which is shared by every cluster of a class
// or every ordered class pair, so the probe walks class representatives
// instead of clusters, allocates nothing, and returns at the first
// unstable queue. SaturationPoint's bisection consumes only this bit,
// which turns its ~16–26 full Evaluate calls into probes.
func (m *Model) Saturated(lambdaG float64) bool {
	var p satProbe
	return m.saturated(lambdaG, &p)
}

// satProbe is what a run of saturation probes shares: the queue that
// decided the previous probe, so a bisection recheck can start there,
// and the cell scratch of the pair-class checks. Saturation is a pure
// disjunction over the queues, so checking one of them first never
// changes the answer, only how fast the saturated half of a bisection
// returns.
type satProbe struct {
	kind  int // satHintNone or the queue family of idx
	idx   int // cluster index (intra) or class-pair index (CD/src)
	cells cellBuf
}

const (
	satHintNone = iota
	satHintIntra
	satHintCD
	satHintSrc
)

// saturated is Saturated with caller-held probe state; probe.kind/idx always
// names the unstable queue on a true return.
func (m *Model) saturated(lambdaG float64, probe *satProbe) bool {
	if lambdaG < 0 || math.IsNaN(lambdaG) {
		panic(fmt.Sprintf("core: invalid traffic rate %v", lambdaG))
	}
	switch probe.kind {
	case satHintIntra:
		if m.intraSaturated(lambdaG, probe.idx) {
			return true
		}
	case satHintCD:
		if m.pairCDSaturated(lambdaG, probe.idx) {
			return true
		}
	case satHintSrc:
		if m.pairSrcSaturated(lambdaG, probe.idx, &probe.cells) {
			return true
		}
	}

	// Intra branch: one source queue per class (Eqs 13–18).
	for _, i := range m.classRep {
		if m.intraSaturated(lambdaG, i) {
			probe.kind, probe.idx = satHintIntra, i
			return true
		}
	}

	if len(m.cl) < 2 {
		// No inter-cluster traffic (interCluster leaves LOut zero).
		return false
	}

	// Inter branch: every built pair class occurs for some ordered
	// cluster pair, and every (i,j) maps to a built pair class, so the
	// disjunction over pair classes equals Evaluate's disjunction over
	// cluster pairs.
	for cp := range m.pairs {
		if m.pairs[cp].cells == nil {
			continue // pair cannot occur
		}
		if m.pairCDSaturated(lambdaG, cp) {
			probe.kind, probe.idx = satHintCD, cp
			return true
		}
		if m.pairSrcSaturated(lambdaG, cp, &probe.cells) {
			probe.kind, probe.idx = satHintSrc, cp
			return true
		}
	}
	return false
}

// intraSaturated checks cluster i's source queue, mirroring
// intraCluster's MG1 construction exactly so the stability predicate is
// bit-identical.
func (m *Model) intraSaturated(lambdaG float64, i int) bool {
	d := &m.cl[i]
	M := float64(m.Msg.Flits)
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
		srcRate = float64(d.nodes) * lambdaG * (1 - d.u)
	}
	sigma := tIn - M*d.tcnI1
	q := queueing.MG1{Lambda: srcRate, MeanService: tIn, VarService: sigma * sigma}
	_, err := q.Wait()
	return err != nil
}

// pairCDSaturated checks class pair cp's concentrator/dispatcher queue
// (Eqs 36–37), mirroring pairLatency exactly.
func (m *Model) pairCDSaturated(lambdaG float64, cp int) bool {
	pc := &m.pairs[cp]
	M := float64(m.Msg.Flits)
	q := queueing.MG1{Lambda: lambdaG * pc.wcCof, MeanService: M * m.tcsI2, VarService: pc.varCD}
	_, err := q.Wait()
	return err != nil
}

// pairSrcSaturated checks class pair cp's source queue (Eq 31),
// mirroring pairLatency exactly.
func (m *Model) pairSrcSaturated(lambdaG float64, cp int, buf *cellBuf) bool {
	pc := &m.pairs[cp]
	M := float64(m.Msg.Flits)
	tEx := m.crossingLatency(pc, lambdaG*pc.etaSrcCof, lambdaG*pc.etaI2Cof, lambdaG*pc.etaDstCof, buf)
	sigma := tEx - M*pc.tcnE1Src
	q := queueing.MG1{Lambda: lambdaG * pc.srcCof, MeanService: tEx, VarService: sigma * sigma}
	_, err := q.Wait()
	return err != nil
}
