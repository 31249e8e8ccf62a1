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
// or every ordered class pair, so the check walks class representatives
// instead of clusters, allocates nothing, and returns at the first
// unstable queue.
func (m *Model) Saturated(lambdaG float64) bool {
	var p satProbe
	return m.saturated(lambdaG, &p)
}

// The model's queue families; a queueRef names one queue of a family.
const (
	queueNone  = iota
	queueIntra // a class's intra source queue (Eqs 13–18); idx is its representative cluster
	queueCD    // a class pair's concentrator/dispatcher queue (Eqs 36–37); idx is the class pair
	queueSrc   // a class pair's inter source queue (Eq 31); idx is the class pair
)

type queueRef struct{ kind, idx int }

// satProbe is what a run of saturation probes shares: the hint (the
// queue that decided the last saturated probe), the queue with the
// highest utilization at the last full check that found every queue
// stable, and the cell scratch of the inter source queues.
type satProbe struct {
	hint, top queueRef
	cells     cellBuf
}

// queue returns one queue's utilization ρ at lambdaG and whether
// queueing.MG1 rejects it, using the queue's own MG1 constructor.
func (m *Model) queue(lambdaG float64, q queueRef, cells *cellBuf) (rho float64, unstable bool) {
	var mg queueing.MG1
	switch q.kind {
	case queueIntra:
		mg = m.intraMG1(lambdaG, q.idx)
	case queueCD:
		mg = m.cdMG1(lambdaG, &m.pairs[q.idx])
	default:
		pc := &m.pairs[q.idx]
		mg = m.srcMG1(lambdaG, pc, m.crossingLatency(pc, lambdaG, cells))
	}
	_, err := mg.Wait()
	return mg.Utilization(), err != nil
}

// saturated is the full check: Saturated with caller-held probe state.
// It checks the hint first, then every other queue. On a true return
// p.hint names the unstable queue; on a false return p.top names the
// queue with the highest utilization.
func (m *Model) saturated(lambdaG float64, p *satProbe) bool {
	if lambdaG < 0 || math.IsNaN(lambdaG) {
		panic(fmt.Sprintf("core: invalid traffic rate %v", lambdaG))
	}
	best := math.Inf(-1)
	p.top = p.hint
	if p.hint.kind != queueNone {
		rho, unstable := m.queue(lambdaG, p.hint, &p.cells)
		if unstable {
			return true
		}
		best = rho
	}
	check := func(q queueRef) bool {
		if q == p.hint {
			return false
		}
		rho, unstable := m.queue(lambdaG, q, &p.cells)
		if unstable {
			p.hint = q
		} else if rho > best {
			best, p.top = rho, q
		}
		return unstable
	}

	// Intra branch: one source queue per class (Eqs 13–18).
	for _, i := range m.classRep {
		if check(queueRef{queueIntra, i}) {
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
		if check(queueRef{queueCD, cp}) || check(queueRef{queueSrc, cp}) {
			return true
		}
	}
	return false
}

// SaturationPoint locates, by bisection, the largest traffic rate in
// (0, hi] at which the model is still stable, within relative tolerance
// tol. It returns 0 if the model is saturated even at hi·2⁻⁶⁰, and hi if
// it never saturates below hi. It allocates nothing.
//
// Most probes check one queue instead of all of them, with every answer
// equal to a full check's. The probes at hi and hi·2⁻⁶⁰ are full
// checks, and so is every bisection probe until one finds every queue
// stable; that probe points the hint at the queue with the highest ρ.
// From then on a probe checks only the hint: an unstable hint is a
// saturated answer, a stable one a provisional stable answer. When the
// bracket is narrow enough, one full check at lo confirms every
// provisional answer, because each of them was a probe at or below lo.
// If that check finds an unstable queue, it becomes the hint and the
// bisection resumes from the bracket it had before its first
// provisional answer.
//
// This is exact because each queue's test is monotone in λ, in floating
// point too. Every arrival rate is λ times a non-negative constant, and
// every service-time term is a sum or product of non-negative terms
// that grow with those rates, so with IEEE rounding (monotone in each
// operand) fl(λ·c)·T(λ) ≥ 1 flips at most once as λ grows. A saturated
// answer from any one queue is therefore a full check's answer, and a
// queue stable at lo is stable at every probe below it.
func (m *Model) SaturationPoint(hi, tol float64) float64 {
	point, _ := m.saturationSearch(hi, tol)
	return point
}

// saturationSearch is SaturationPoint, also reporting how many times
// the bisection resumed.
func (m *Model) saturationSearch(hi, tol float64) (point float64, resumes int) {
	if hi <= 0 || tol <= 0 {
		panic(fmt.Sprintf("core: invalid saturation search hi=%v tol=%v", hi, tol))
	}
	var p satProbe
	if !m.saturated(hi, &p) {
		return hi, 0
	}
	lo := hi * math.Ldexp(1, -60)
	if m.saturated(lo, &p) {
		return 0, 0
	}
	hinted, provisional := false, false
	var lo0, hi0 float64 // the bracket before the first provisional answer
	for {
		for (hi-lo)/hi > tol {
			mid := (lo + hi) / 2
			var unstable bool
			if hinted {
				_, unstable = m.queue(mid, p.hint, &p.cells)
			} else {
				unstable = m.saturated(mid, &p)
			}
			switch {
			case unstable:
				hi = mid
			case !hinted:
				lo, p.hint, hinted = mid, p.top, true
			default:
				if !provisional {
					lo0, hi0, provisional = lo, hi, true
				}
				lo = mid
			}
		}
		if !provisional || !m.saturated(lo, &p) {
			return lo, resumes
		}
		lo, hi, provisional = lo0, hi0, false
		resumes++
	}
}
