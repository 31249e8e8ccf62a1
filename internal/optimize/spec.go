// Package optimize is the design-space search engine: a declarative
// SearchSpec describes free axes of a heterogeneous cluster-of-clusters
// configuration — switch arity, per-group cluster counts, tree heights
// and network tiers, the global ICN2 class and its bandwidth scale —
// plus constraints (node bounds, a first-order cost model, latency SLOs)
// and an objective, and the engine searches the induced configuration
// space for the Pareto frontier over cost × latency × saturation.
//
// Small spaces are enumerated exhaustively; large ones are explored by
// deterministic beam search or simulated annealing (seeded via
// internal/rng, so identical spec+seed reproduce the frontier
// bit-identically at any worker count). Candidate evaluation is spread
// over the internal/batch parallel loop, and best-so-far progress is
// reported incrementally. cmd/ccscen exposes the engine as `ccscen
// optimize`, cmd/ccserved as POST /v1/optimize.
package optimize

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/ccnet/ccnet/internal/perfab"
	"github.com/ccnet/ccnet/internal/scenario"
)

// Objective names. Every objective is reported as a "higher is better"
// scalar internally; see objectiveValue.
const (
	ObjMaxSaturation = "maxSaturation" // maximize the saturation rate λ*
	ObjMinLatency    = "minLatency"    // minimize latency at the probe rate
	ObjMinCost       = "minCost"       // minimize cost subject to the SLO
	// ObjMinExpectedLatency minimizes the failure-weighted expected
	// latency from the performability block (requires one).
	ObjMinExpectedLatency = "minExpectedLatency"
)

// Method names for SearchOpts.Method.
const (
	MethodAuto   = "auto"
	MethodGrid   = "grid"
	MethodBeam   = "beam"
	MethodAnneal = "anneal"
)

// SearchSpec is one declarative design-space study. The zero value is
// invalid; construct with Parse or Load so defaults and validation apply.
type SearchSpec struct {
	// Kind tags the file as an optimizer search spec ("optimize") so
	// kind-aware tools (`ccscen validate`) can dispatch without guessing;
	// empty is accepted for backward compatibility.
	Kind string `json:"kind,omitempty"`
	// Name identifies the study in results (required; same safe-path
	// alphabet as scenario names).
	Name string `json:"name"`
	// Title and Description are free-form documentation.
	Title       string `json:"title,omitempty"`
	Description string `json:"description,omitempty"`
	// Seed drives every stochastic search decision (default 1). The same
	// spec and seed reproduce the frontier bit-identically.
	Seed uint64 `json:"seed,omitempty"`

	Space       SpaceSpec          `json:"space"`
	Message     MessageSpec        `json:"message"`
	Model       scenario.ModelSpec `json:"model,omitempty"`
	Constraints ConstraintSpec     `json:"constraints,omitempty"`
	// Objective selects the search target: maxSaturation (default),
	// minLatency, minCost or minExpectedLatency.
	Objective string     `json:"objective,omitempty"`
	Search    SearchOpts `json:"search,omitempty"`

	// Performability weights every candidate by its failure behavior:
	// the block's classes (group indices refer to space.groups; entries
	// whose group is absent or whose level exceeds a candidate's tree
	// height are skipped for that candidate) run the perfab engine per
	// feasible candidate, the Pareto frontier's latency metric becomes
	// the expected (availability-weighted) latency, and the
	// minAvailability/maxExpectedLatency constraints apply. Keep
	// states.maxExact/samples small — the analysis runs once per
	// candidate.
	Performability *perfab.Block `json:"performability,omitempty"`
}

// MessageSpec is the fixed message geometry every candidate is evaluated
// under.
type MessageSpec struct {
	Flits     int `json:"flits"`
	FlitBytes int `json:"flitBytes"`
}

// SpaceSpec declares the free axes. Each axis lists its admissible
// values; a candidate configuration picks one value per axis. Omitted
// axes (nil or single-valued) are fixed.
type SpaceSpec struct {
	// Ports lists switch arities m (each even, >= 2).
	Ports []int `json:"ports"`
	// ICN2 lists global inter-cluster network tiers (default [net1]).
	ICN2 []scenario.NetSpec `json:"icn2,omitempty"`
	// ICN2Scale lists bandwidth multipliers applied to the chosen ICN2
	// tier — the Fig 7 upgrade knob (default [1]).
	ICN2Scale []float64 `json:"icn2Scale,omitempty"`
	// Groups lists cluster-group axis sets; each group independently
	// picks a count, tree height and network tiers. A count of 0 removes
	// the group from the candidate (its other axes become don't-cares).
	Groups []GroupAxes `json:"groups"`
}

// GroupAxes is the axis set of one cluster group.
type GroupAxes struct {
	// Counts lists how many identical clusters the group contributes
	// (default [1]; 0 entries allowed — the group is then absent).
	Counts []int `json:"counts,omitempty"`
	// TreeLevels lists tree heights n_i.
	TreeLevels []int `json:"treeLevels"`
	// ICN1 and ECN1 list the group's intra-cluster and gateway network
	// tiers (defaults [net1] and [net2], the paper's assignment).
	ICN1 []scenario.NetSpec `json:"icn1,omitempty"`
	ECN1 []scenario.NetSpec `json:"ecn1,omitempty"`
}

// ConstraintSpec bounds feasibility. Zero fields are unchecked.
type ConstraintSpec struct {
	// MinNodes and MaxNodes bound the total node count N.
	MinNodes int `json:"minNodes,omitempty"`
	MaxNodes int `json:"maxNodes,omitempty"`
	// Cost prices the configuration; MaxCost rejects candidates above the
	// budget. MaxCost requires Cost.
	Cost    *CostSpec `json:"cost,omitempty"`
	MaxCost float64   `json:"maxCost,omitempty"`
	// MinSaturation rejects candidates saturating below this rate.
	MinSaturation float64 `json:"minSaturation,omitempty"`
	// Lambda is the latency probe rate: candidates are scored on latency
	// at this λ, and candidates saturated there are infeasible. When 0,
	// latency is probed at LatencyFraction of each candidate's own
	// saturation point instead (latency-at-headroom, always finite).
	Lambda float64 `json:"lambda,omitempty"`
	// MaxLatency is the SLO: mean latency at the probe must not exceed
	// it.
	MaxLatency float64 `json:"maxLatency,omitempty"`
	// LatencyFraction tunes the relative probe (default 0.9).
	LatencyFraction float64 `json:"latencyFraction,omitempty"`

	// MinAvailability and MaxExpectedLatency constrain the
	// performability metrics (both require the spec's performability
	// block): candidates whose probability of serving traffic falls
	// below MinAvailability, or whose expected latency exceeds
	// MaxExpectedLatency, are infeasible.
	MinAvailability    float64 `json:"minAvailability,omitempty"`
	MaxExpectedLatency float64 `json:"maxExpectedLatency,omitempty"`
}

// CostSpec is the first-order price model: every network is priced per
// switch and per link, with optional bandwidth-proportional components
// (a tier twice as fast costs proportionally more). See Cost in cost.go
// for the switch/link counts.
type CostSpec struct {
	SwitchBase  float64 `json:"switchBase,omitempty"`
	SwitchPerBW float64 `json:"switchPerBandwidth,omitempty"`
	LinkBase    float64 `json:"linkBase,omitempty"`
	LinkPerBW   float64 `json:"linkPerBandwidth,omitempty"`
}

// SearchOpts tune the search strategy.
type SearchOpts struct {
	// Method is auto (default), grid, beam or anneal. Auto enumerates
	// exhaustively when the space fits MaxCandidates and beam-searches
	// otherwise.
	Method string `json:"method,omitempty"`
	// MaxCandidates bounds evaluated candidates (default 200000).
	MaxCandidates int `json:"maxCandidates,omitempty"`
	// BeamWidth is the beam search frontier width (default 32).
	BeamWidth int `json:"beamWidth,omitempty"`
	// Rounds caps beam search rounds (default 64).
	Rounds int `json:"rounds,omitempty"`
	// Chains is the number of independent annealing chains (default 8).
	// Chains — not the worker count — determine the split of the
	// candidate budget, so results are identical at any parallelism.
	Chains int `json:"chains,omitempty"`
}

// fieldErr builds a field-path error in the scenario loader's language.
func fieldErr(path, format string, args ...any) error {
	return fmt.Errorf("%s: %s", path, fmt.Sprintf(format, args...))
}

// Parse decodes and validates one search spec from r; name labels the
// source in error messages.
func Parse(r io.Reader, name string) (*SearchSpec, error) {
	var s SearchSpec
	if err := scenario.Decode(r, &s, "spec"); err != nil {
		return nil, fmt.Errorf("searchspec %s: %w", name, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("searchspec %s: invalid spec:\n%w", name, err)
	}
	return &s, nil
}

// Load reads and validates one search spec file.
func Load(path string) (*SearchSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("searchspec: %w", err)
	}
	defer f.Close()
	return Parse(f, filepath.Base(path))
}

// knownObjectives and knownMethods list the valid names.
var (
	knownObjectives = []string{ObjMaxSaturation, ObjMinLatency, ObjMinCost, ObjMinExpectedLatency}
	knownMethods    = []string{MethodAuto, MethodGrid, MethodBeam, MethodAnneal}
)

// Validate checks the whole spec and returns every problem found as
// field-path errors joined with errors.Join, matching the scenario
// loader's conventions.
func (s *SearchSpec) Validate() error {
	var errs []error
	add := func(path, format string, args ...any) {
		errs = append(errs, fieldErr(path, format, args...))
	}

	if s.Kind != "" && s.Kind != "optimize" {
		add("kind", `must be "optimize" (or absent) in a search spec, got %q`, s.Kind)
	}

	if s.Name == "" {
		add("name", "required")
	} else if !nameOK(s.Name) {
		add("name", "%q may only contain letters, digits, '.', '-' and '_'", s.Name)
	}

	// --- space ----------------------------------------------------------
	sp := &s.Space
	if len(sp.Ports) == 0 {
		add("space.ports", "at least one switch arity required")
	}
	for i, m := range sp.Ports {
		if m < 2 || m%2 != 0 {
			add(fmt.Sprintf("space.ports[%d]", i), "must be an even integer >= 2, got %d", m)
		}
	}
	for i := range sp.ICN2 {
		p := fmt.Sprintf("space.icn2[%d]", i)
		if _, err := sp.ICN2[i].Resolve(p); err != nil {
			errs = append(errs, err)
		}
	}
	for i, f := range sp.ICN2Scale {
		if f <= 0 || math.IsNaN(f) || math.IsInf(f, 0) {
			add(fmt.Sprintf("space.icn2Scale[%d]", i), "must be a positive finite factor, got %v", f)
		}
	}
	if len(sp.Groups) == 0 {
		add("space.groups", "at least one cluster group required")
	}
	for gi := range sp.Groups {
		g := &sp.Groups[gi]
		p := fmt.Sprintf("space.groups[%d]", gi)
		for i, c := range g.Counts {
			if c < 0 {
				add(fmt.Sprintf("%s.counts[%d]", p, i), "must be >= 0, got %d", c)
			}
		}
		if len(g.TreeLevels) == 0 {
			add(p+".treeLevels", "at least one tree height required")
		}
		for i, n := range g.TreeLevels {
			if n < 1 || n > 32 {
				add(fmt.Sprintf("%s.treeLevels[%d]", p, i), "must be in [1,32], got %d", n)
			}
		}
		for i := range g.ICN1 {
			if _, err := g.ICN1[i].Resolve(fmt.Sprintf("%s.icn1[%d]", p, i)); err != nil {
				errs = append(errs, err)
			}
		}
		for i := range g.ECN1 {
			if _, err := g.ECN1[i].Resolve(fmt.Sprintf("%s.ecn1[%d]", p, i)); err != nil {
				errs = append(errs, err)
			}
		}
	}

	// --- message --------------------------------------------------------
	if s.Message.Flits <= 0 {
		add("message.flits", "must be positive, got %d", s.Message.Flits)
	}
	if s.Message.FlitBytes <= 0 {
		add("message.flitBytes", "must be positive, got %d", s.Message.FlitBytes)
	}

	// --- model ----------------------------------------------------------
	if err := s.Model.Validate(); err != nil {
		errs = append(errs, err)
	}

	// --- constraints ----------------------------------------------------
	co := &s.Constraints
	if co.MinNodes < 0 {
		add("constraints.minNodes", "must be >= 0, got %d", co.MinNodes)
	}
	if co.MaxNodes < 0 {
		add("constraints.maxNodes", "must be >= 0, got %d", co.MaxNodes)
	}
	if co.MaxNodes > 0 && co.MinNodes > co.MaxNodes {
		add("constraints.minNodes", "must not exceed maxNodes (%d > %d)", co.MinNodes, co.MaxNodes)
	}
	if co.Cost != nil {
		c := co.Cost
		for _, f := range []struct {
			path string
			v    float64
		}{
			{"constraints.cost.switchBase", c.SwitchBase},
			{"constraints.cost.switchPerBandwidth", c.SwitchPerBW},
			{"constraints.cost.linkBase", c.LinkBase},
			{"constraints.cost.linkPerBandwidth", c.LinkPerBW},
		} {
			if f.v < 0 || math.IsNaN(f.v) || math.IsInf(f.v, 0) {
				add(f.path, "must be a non-negative finite price, got %v", f.v)
			}
		}
		if c.SwitchBase == 0 && c.SwitchPerBW == 0 && c.LinkBase == 0 && c.LinkPerBW == 0 {
			add("constraints.cost", "at least one price must be positive")
		}
	}
	if co.MaxCost < 0 || math.IsNaN(co.MaxCost) {
		add("constraints.maxCost", "must be positive, got %v", co.MaxCost)
	}
	if co.MaxCost > 0 && co.Cost == nil {
		add("constraints.maxCost", "requires a constraints.cost price model")
	}
	if co.MinSaturation < 0 || math.IsNaN(co.MinSaturation) {
		add("constraints.minSaturation", "must be positive, got %v", co.MinSaturation)
	}
	if co.Lambda < 0 || math.IsNaN(co.Lambda) || math.IsInf(co.Lambda, 0) {
		add("constraints.lambda", "must be a positive finite rate, got %v", co.Lambda)
	}
	if co.MaxLatency < 0 || math.IsNaN(co.MaxLatency) {
		add("constraints.maxLatency", "must be positive, got %v", co.MaxLatency)
	}
	if co.LatencyFraction < 0 || co.LatencyFraction >= 1 {
		add("constraints.latencyFraction", "must be in (0,1), got %v", co.LatencyFraction)
	}
	if co.MinAvailability < 0 || co.MinAvailability >= 1 || math.IsNaN(co.MinAvailability) {
		add("constraints.minAvailability", "must be in (0,1), got %v", co.MinAvailability)
	}
	if co.MinAvailability > 0 && s.Performability == nil {
		add("constraints.minAvailability", "requires a performability block")
	}
	if co.MaxExpectedLatency < 0 || math.IsNaN(co.MaxExpectedLatency) {
		add("constraints.maxExpectedLatency", "must be positive, got %v", co.MaxExpectedLatency)
	}
	if co.MaxExpectedLatency > 0 && s.Performability == nil {
		add("constraints.maxExpectedLatency", "requires a performability block")
	}

	// --- performability -------------------------------------------------
	if s.Performability != nil && len(sp.Groups) > 0 {
		// Validate group/level references against the widest shapes the
		// space can produce; per-candidate narrowing (absent groups,
		// shorter trees) skips entries at evaluation time.
		shapes := make([]perfab.GroupShape, len(sp.Groups))
		for gi := range sp.Groups {
			g := &sp.Groups[gi]
			shape := perfab.GroupShape{Count: 1}
			for _, c := range g.Counts {
				if c > shape.Count {
					shape.Count = c
				}
			}
			for _, n := range g.TreeLevels {
				if n > shape.TreeLevels {
					shape.TreeLevels = n
				}
			}
			shapes[gi] = shape
		}
		// ICN2 height varies per candidate, so pass 0: out-of-range
		// ICN2 levels are skipped per candidate at evaluation time.
		if err := s.Performability.Validate("performability", shapes, 0); err != nil {
			errs = append(errs, err)
		}
	}

	// --- objective ------------------------------------------------------
	switch s.Objective {
	case "", ObjMaxSaturation, ObjMinLatency:
	case ObjMinCost:
		if co.Cost == nil {
			add("objective", "minCost requires a constraints.cost price model")
		}
		if co.MaxLatency == 0 && co.MinSaturation == 0 {
			add("objective", "minCost needs an SLO: set constraints.maxLatency and/or constraints.minSaturation")
		}
	case ObjMinExpectedLatency:
		if s.Performability == nil {
			add("objective", "minExpectedLatency requires a performability block")
		}
	default:
		add("objective", "unknown objective %q (valid: %s)",
			s.Objective, strings.Join(knownObjectives, ", "))
	}

	// --- search ---------------------------------------------------------
	se := &s.Search
	switch se.Method {
	case "", MethodAuto, MethodGrid, MethodBeam, MethodAnneal:
	default:
		add("search.method", "unknown method %q (valid: %s)",
			se.Method, strings.Join(knownMethods, ", "))
	}
	if se.MaxCandidates < 0 {
		add("search.maxCandidates", "must be positive, got %d", se.MaxCandidates)
	}
	if se.BeamWidth < 0 {
		add("search.beamWidth", "must be positive, got %d", se.BeamWidth)
	}
	if se.Rounds < 0 {
		add("search.rounds", "must be positive, got %d", se.Rounds)
	}
	if se.Chains < 0 {
		add("search.chains", "must be positive, got %d", se.Chains)
	}

	if len(errs) == 0 {
		return nil
	}
	sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
	return errors.Join(errs...)
}

// objective returns the effective objective name.
func (s *SearchSpec) objective() string {
	if s.Objective == "" {
		return ObjMaxSaturation
	}
	return s.Objective
}

// seed returns the effective base seed.
func (s *SearchSpec) seed() uint64 {
	if s.Seed == 0 {
		return 1
	}
	return s.Seed
}

// latencyFraction returns the effective relative probe fraction.
func (c *ConstraintSpec) latencyFraction() float64 {
	if c.LatencyFraction == 0 {
		return 0.9
	}
	return c.LatencyFraction
}

// maxCandidates returns the effective evaluation budget.
func (o *SearchOpts) maxCandidates() int {
	if o.MaxCandidates == 0 {
		return 200000
	}
	return o.MaxCandidates
}

func (o *SearchOpts) beamWidth() int {
	if o.BeamWidth == 0 {
		return 32
	}
	return o.BeamWidth
}

func (o *SearchOpts) rounds() int {
	if o.Rounds == 0 {
		return 64
	}
	return o.Rounds
}

func (o *SearchOpts) chains() int {
	if o.Chains == 0 {
		return 8
	}
	return o.Chains
}

// nameOK mirrors the scenario loader's safe-path-element rule.
func nameOK(name string) bool {
	if name == "." || name == ".." {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '_':
		default:
			return false
		}
	}
	return true
}
