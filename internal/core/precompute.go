package core

import (
	"github.com/ccnet/ccnet/internal/cluster"
	"github.com/ccnet/ccnet/internal/netchar"
)

// This file implements incremental model construction: a Precompute
// handle keeps what successive builds of "neighboring" systems can
// share without changing a computed bit — an optimizer mutating one
// axis of a candidate, or the performability layer rebuilding the same
// physical clusters under different failure states. It caches the Eq 6
// distance distributions by (k, n), and it lends each build the slab its
// pair classes' cells are carved from. Everything else is rebuilt: the
// class and pair-class tables cost less to derive than to look up.
// Results are bit-identical with and without a handle (property-tested
// in precompute_test.go).

// Precompute is a reusable cross-model handle for New/NewDegraded. It
// is NOT safe for concurrent use: give each worker its own handle. A
// model built through a handle is valid until the next build through
// that handle, which reuses its cell slab. Degraded builds through a
// handle also adopt the Degradation's distance-distribution slices
// without copying, so callers must treat every distribution slice they
// pass in as immutable while a model built from it is in use.
type Precompute struct {
	dist  map[[2]int][]float64
	cells []float64 // the last build's pair-class cells
}

// NewPrecompute returns an empty handle.
func NewPrecompute() *Precompute {
	return &Precompute{dist: make(map[[2]int][]float64)}
}

// distanceDist returns the Eq 6 distribution for (k, n), cached.
func (pre *Precompute) distanceDist(k, n int) []float64 {
	key := [2]int{k, n}
	if d, ok := pre.dist[key]; ok {
		return d
	}
	d := distanceDist(k, n)
	pre.dist[key] = d
	return d
}

// NewWith is New with a reusable precompute handle; pre == nil is
// exactly New. The model is valid until the next build through pre;
// see Precompute for the sharing contract.
func NewWith(sys *cluster.System, msg netchar.MessageSpec, opt Options, pre *Precompute) (*Model, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if err := msg.Validate(); err != nil {
		return nil, err
	}
	return newModel(sys, msg, opt, nil, pre)
}

// NewDegradedWith is NewDegraded with a reusable precompute handle;
// pre == nil is exactly NewDegraded. The model is valid until the next
// build through pre. With a handle, the Degradation's Dist and ICN2Dist
// slices are adopted without copying — the caller must keep them
// unchanged while the model is in use.
func NewDegradedWith(sys *cluster.System, msg netchar.MessageSpec, opt Options, deg *Degradation, pre *Precompute) (*Model, error) {
	if deg == nil {
		return NewWith(sys, msg, opt, pre)
	}
	if err := validateDegraded(sys, deg); err != nil {
		return nil, err
	}
	if err := msg.Validate(); err != nil {
		return nil, err
	}
	return newModel(sys, msg, opt, deg, pre)
}
