package optimize

import (
	"context"

	"github.com/ccnet/ccnet/internal/cluster"
	"github.com/ccnet/ccnet/internal/netchar"
	"github.com/ccnet/ccnet/internal/perfab"
	"github.com/ccnet/ccnet/internal/rng"
)

// This file weights the design-space search by failure behavior: when
// the spec carries a performability block, every otherwise-feasible
// candidate runs a (bounded) perfab analysis, the frontier's latency
// metric becomes the expected latency, and the availability constraints
// apply. The block's group indices refer to space.groups; a candidate
// that drops a group (count 0) or picks a shorter tree simply has no
// components for the affected classes, so those entries are skipped.

// perfSeedSalt separates per-candidate sampler seeds from other
// consumers of the spec seed.
const perfSeedSalt = 0x70657266 // "perf"

// candidateBlock narrows the spec's block to one candidate: entries
// referencing absent groups (or levels above the candidate's tree
// height / the candidate's ICN2 height) are dropped, group indices are
// remapped to the candidate's present groups. ok is false when nothing
// remains to fail.
func (sp *Space) candidateBlock(digits []int, nc int) (*perfab.Block, []int, bool) {
	b := sp.spec.Performability
	// present[gi] = candidate group index, or -1.
	present := make([]int, len(sp.groups))
	levels := make([]int, len(sp.groups))
	groupOf := []int{}
	next := 0
	for gi, g := range sp.groups {
		base := 3 + gi*groupDims
		count := g.counts[digits[base]]
		if count == 0 {
			present[gi] = -1
			continue
		}
		present[gi] = next
		levels[gi] = g.levels[digits[base+1]]
		for i := 0; i < count; i++ {
			groupOf = append(groupOf, next)
		}
		next++
	}

	nb := &perfab.Block{
		Probe:       b.Probe,
		SLO:         b.SLO,
		Percentiles: b.Percentiles,
		States:      b.States,
	}
	for _, f := range b.Nodes {
		if present[f.Group] < 0 {
			continue
		}
		f.Group = present[f.Group]
		nb.Nodes = append(nb.Nodes, f)
	}
	for _, f := range b.Switches {
		if present[f.Group] < 0 || f.Level >= levels[f.Group] {
			continue
		}
		f.Group = present[f.Group]
		nb.Switches = append(nb.Switches, f)
	}
	for _, f := range b.ICN2Switches {
		if f.Level >= nc {
			continue
		}
		nb.ICN2Switches = append(nb.ICN2Switches, f)
	}
	for _, f := range b.Links {
		if present[f.Group] < 0 {
			continue
		}
		f.Group = present[f.Group]
		nb.Links = append(nb.Links, f)
	}
	nb.ICN2Links = b.ICN2Links

	hasClass := len(nb.Nodes)+len(nb.Switches)+len(nb.ICN2Switches)+len(nb.Links) > 0 || nb.ICN2Links != nil
	return nb, groupOf, hasClass
}

// evaluatePerf runs the bounded perfab analysis for one candidate and
// applies the availability constraints, filling res.availability and
// res.expLatency. It returns false (with res.reason set) when the
// candidate is infeasible. The sampler seed derives from (spec seed,
// candidate id), so the search stays deterministic at any parallelism.
func (sp *Space) evaluatePerf(id uint64, digits []int, sys *cluster.System, res *candResult) bool {
	co := &sp.spec.Constraints
	nc, _ := icn2Levels(sys.K(), sys.NumClusters())
	block, groupOf, hasClass := sp.candidateBlock(digits, nc)
	if !hasClass {
		// Nothing can fail in this candidate: it is nominally perfect.
		res.availability = 1
		res.expLatency = res.latency
		return true
	}
	study := &perfab.Study{
		Name:    sp.spec.Name,
		Sys:     sys,
		GroupOf: groupOf,
		Msg:     netchar.MessageSpec{Flits: sp.spec.Message.Flits, FlitBytes: sp.spec.Message.FlitBytes},
		Opt:     sp.spec.Model.Options(false),
		Block:   block,
		Seed:    rng.New(sp.spec.seed(), perfSeedSalt).Derive(id).Uint64(),
	}
	rep, err := (&perfab.Engine{}).Run(context.Background(), study)
	if err != nil {
		res.reason = infAvailability
		return false
	}
	res.availability = rep.Availability
	res.expLatency = rep.ExpectedLatency
	if rep.LatencyFiniteProbability == 0 {
		// The probe is unservable in every reachable state.
		res.reason = infAvailability
		return false
	}
	if co.MinAvailability > 0 && res.availability < co.MinAvailability {
		res.reason = infAvailability
		return false
	}
	if co.MaxExpectedLatency > 0 && res.expLatency > co.MaxExpectedLatency {
		res.reason = infAvailability
		return false
	}
	return true
}
