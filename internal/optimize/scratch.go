package optimize

import (
	"slices"
	"strconv"

	"github.com/ccnet/ccnet/internal/cluster"
	"github.com/ccnet/ccnet/internal/core"
)

// evalScratch bundles one worker's reusable evaluation state: the digit
// decode buffer, the geometry/fingerprint buffers, and a core.Precompute
// handle, which serves the per-cluster Eq 6 distance distributions from
// cache and lends each model build its pair-cell slab (so a candidate's
// model is dropped before the scratch's next evaluation). A scratch must
// not be used concurrently; results are bit-identical whichever scratch
// (and cache state) serves an id, so handing each parallel-loop
// goroutine its own scratch preserves the spec+seed → byte-identical
// report invariant.
type evalScratch struct {
	digits   []int
	groups   []candGroup // geometry group buffer
	fpGroups []candGroup // fingerprint sort/merge buffer
	fpBuf    []byte
	sys      *cluster.System // reused system; dead once evaluate returns
	pre      *core.Precompute
}

func (sp *Space) newScratch() *evalScratch {
	return &evalScratch{
		digits: make([]int, sp.Dims()),
		pre:    core.NewPrecompute(),
	}
}

// fingerprint renders geo's physical-system identity through the
// scratch buffers — same bytes as candGeometry.fingerprint, no
// per-call allocation beyond the returned string.
func (sc *evalScratch) fingerprint(g *candGeometry) string {
	groups := append(sc.fpGroups[:0], g.groups...)
	slices.SortFunc(groups, func(a, b candGroup) int {
		if classLess(&a, &b) {
			return -1
		}
		if classLess(&b, &a) {
			return 1
		}
		return 0
	})
	merged := groups[:0]
	for _, grp := range groups {
		if n := len(merged); n > 0 && !classLess(&merged[n-1], &grp) && !classLess(&grp, &merged[n-1]) {
			merged[n-1].count += grp.count
			continue
		}
		merged = append(merged, grp)
	}
	sc.fpGroups = groups[:cap(groups)][:0]

	b := sc.fpBuf[:0]
	b = append(b, 'm')
	b = strconv.AppendInt(b, int64(g.ports), 10)
	b = append(b, '|')
	b = append(b, g.icn2Str...)
	for i := range merged {
		grp := &merged[i]
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(grp.count), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(grp.levels), 10)
		b = append(b, ',')
		b = append(b, grp.icn1Str...)
		b = append(b, ',')
		b = append(b, grp.ecn1Str...)
	}
	sc.fpBuf = b
	return string(b)
}
