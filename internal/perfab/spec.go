// Package perfab is the performability engine: failure/repair-aware
// degraded-mode analysis layered on the analytical model, after Kirsal &
// Ever's availability-plus-performance composition for Beowulf clusters
// and Thomasian's hierarchical decomposition discipline. A declarative
// failure block assigns MTTF/MTTR (and optional finite repair crews) to
// component classes — compute nodes per cluster group, tree switches per
// level on the ICN1/ECN1 fabrics, ICN2 switches per level, and links —
// each an independent birth–death Markov chain whose exact steady-state
// distribution the engine computes. The induced availability state space
// is either enumerated exhaustively (small spaces) or sampled by
// deterministic seeded stratified Monte Carlo; every state's degraded
// system is rebuilt (failed nodes shrink populations, failed switches
// re-derive distance distributions via internal/topology and inflate
// per-channel rates) and re-evaluated through the cached core.Model hot
// path; and the state-weighted aggregates — expected latency, expected
// saturation throughput, SLO-violation probability, capacity percentiles
// — summarize what the cluster actually delivers under partial failure.
//
// Evaluation is spread over the internal/batch parallel loop with
// ordered absorption, so identical spec+seed produce byte-identical
// reports at any worker count. The scenario format carries the failure
// block ("performability"), cmd/ccscen exposes the engine as `ccscen
// perf`, cmd/ccserved as POST /v1/performability, and internal/optimize
// can weight its Pareto search by expected (not nominal) latency.
package perfab

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Network names for switch and link classes.
const (
	NetICN1 = "icn1"
	NetECN1 = "ecn1"
)

// RateSpec is one component class's failure/repair behavior.
type RateSpec struct {
	// MTTF and MTTR are the mean time to failure of one operational
	// component and the mean time to repair of one failed component, in
	// the model's time unit (both required, positive).
	MTTF float64 `json:"mttf"`
	MTTR float64 `json:"mttr"`
	// Repairers bounds concurrent repairs for the class (a shared repair
	// crew): the birth–death repair rate at j failed is min(j, Repairers)
	// per MTTR. 0 means unbounded — every component repairs
	// independently, giving the binomial steady state.
	Repairers int `json:"repairers,omitempty"`
}

// NodeFailureSpec assigns failure behavior to one cluster group's
// compute nodes. Failed nodes shrink the group's cluster populations.
type NodeFailureSpec struct {
	// Group indexes the system's cluster groups (scenario
	// system.clusters order; preset systems group identical consecutive
	// clusters).
	Group int `json:"group"`
	RateSpec
}

// SwitchFailureSpec assigns failure behavior to the switches at one
// level of a cluster group's ICN1 or ECN1 trees. Levels are numbered 0
// (roots) to treeLevels−1 (leaf switches); a failed ICN1 leaf switch
// strands its attached nodes, every other switch failure inflates the
// network's per-channel rates by the lost-capacity factor.
type SwitchFailureSpec struct {
	Group   int    `json:"group"`
	Network string `json:"network"` // "icn1" or "ecn1"
	Level   int    `json:"level"`
	RateSpec
}

// ICN2SwitchFailureSpec assigns failure behavior to one level of the
// global ICN2 tree. A failed ICN2 leaf switch disconnects its attached
// clusters (their nodes count as unserved); upper-level failures inflate
// the ICN2 per-channel rate.
type ICN2SwitchFailureSpec struct {
	Level int `json:"level"`
	RateSpec
}

// LinkFailureSpec assigns failure behavior to one cluster group's ICN1
// or ECN1 links (capacity loss only).
type LinkFailureSpec struct {
	Group   int    `json:"group"`
	Network string `json:"network"`
	RateSpec
}

// ProbeSpec positions the latency probe. Exactly one of Lambda
// (absolute rate) or Fraction (of the intact system's saturation point)
// may be set; both zero default to fraction 0.5.
type ProbeSpec struct {
	Lambda   float64 `json:"lambda,omitempty"`
	Fraction float64 `json:"fraction,omitempty"`
}

// SLOSpec defines the violation predicate: a state violates when its
// probe latency exceeds MaxLatency (0 = unchecked), its served fraction
// falls below MinServedFraction (0 = unchecked), or the probe rate
// saturates the degraded system (always checked).
type SLOSpec struct {
	MaxLatency        float64 `json:"maxLatency,omitempty"`
	MinServedFraction float64 `json:"minServedFraction,omitempty"`
}

// StatesSpec bounds the availability state space handling.
type StatesSpec struct {
	// MaxExact is the largest state-space size enumerated exhaustively
	// (default 4096). Larger spaces switch to stratified sampling.
	MaxExact int `json:"maxExact,omitempty"`
	// Samples is the stratified Monte Carlo sample count (default 1024).
	Samples int `json:"samples,omitempty"`
}

// Block is the declarative performability section: the failure classes
// plus the probe, SLO, percentile and state-space controls. It appears
// as "performability" in scenario files and optimizer search specs.
type Block struct {
	Nodes        []NodeFailureSpec       `json:"nodes,omitempty"`
	Switches     []SwitchFailureSpec     `json:"switches,omitempty"`
	ICN2Switches []ICN2SwitchFailureSpec `json:"icn2Switches,omitempty"`
	Links        []LinkFailureSpec       `json:"links,omitempty"`
	ICN2Links    *RateSpec               `json:"icn2Links,omitempty"`

	Probe ProbeSpec `json:"probe,omitempty"`
	SLO   *SLOSpec  `json:"slo,omitempty"`
	// Percentiles lists the capacity-percentile levels q to report: the
	// largest capacity delivered with probability >= q (default
	// [0.5, 0.9, 0.99]).
	Percentiles []float64  `json:"percentiles,omitempty"`
	States      StatesSpec `json:"states,omitempty"`
}

// GroupShape describes one cluster group of the host system, for
// validating group and level references.
type GroupShape struct {
	// Count is how many clusters the group contributes.
	Count int
	// TreeLevels is the group's tree height n_i. Validation of level
	// references uses the group's tallest admissible height when a group
	// spans several (the optimizer's axes), so pass the maximum.
	TreeLevels int
}

// fieldErr builds a field-path error in the scenario loader's language.
func fieldErr(path, format string, args ...any) error {
	return fmt.Errorf("%s: %s", path, fmt.Sprintf(format, args...))
}

// Validate checks the block against the host system's group shapes,
// returning every problem as field-path errors rooted at path (the
// scenario loader passes "performability"). icn2Levels is the host
// system's ICN2 tree height when the caller knows it; pass 0 to skip
// the ICN2 level-range check (the optimizer's candidates vary in
// height, and out-of-range entries are skipped per candidate there).
func (b *Block) Validate(path string, groups []GroupShape, icn2Levels int) error {
	var errs []error
	add := func(p, format string, args ...any) {
		errs = append(errs, fieldErr(p, format, args...))
	}
	rate := func(p string, r *RateSpec) {
		if r.MTTF <= 0 || math.IsNaN(r.MTTF) || math.IsInf(r.MTTF, 0) {
			add(p+".mttf", "must be a positive finite time, got %v", r.MTTF)
		}
		if r.MTTR <= 0 || math.IsNaN(r.MTTR) || math.IsInf(r.MTTR, 0) {
			add(p+".mttr", "must be a positive finite time, got %v", r.MTTR)
		}
		if r.Repairers < 0 {
			add(p+".repairers", "must be >= 0 (0 = independent repair), got %d", r.Repairers)
		}
	}
	group := func(p string, g int) bool {
		if g < 0 || g >= len(groups) {
			add(p+".group", "group %d outside the system's %d cluster group(s)", g, len(groups))
			return false
		}
		return true
	}
	network := func(p, n string) {
		if n != NetICN1 && n != NetECN1 {
			add(p+".network", "unknown network %q (valid: %s, %s)", n, NetICN1, NetECN1)
		}
	}

	if len(b.Nodes)+len(b.Switches)+len(b.ICN2Switches)+len(b.Links) == 0 && b.ICN2Links == nil {
		add(path, "at least one failure class required (nodes, switches, icn2Switches, links or icn2Links)")
	}
	for i := range b.Nodes {
		p := fmt.Sprintf("%s.nodes[%d]", path, i)
		group(p, b.Nodes[i].Group)
		rate(p, &b.Nodes[i].RateSpec)
	}
	for i := range b.Switches {
		s := &b.Switches[i]
		p := fmt.Sprintf("%s.switches[%d]", path, i)
		network(p, s.Network)
		rate(p, &s.RateSpec)
		if group(p, s.Group) {
			if n := groups[s.Group].TreeLevels; s.Level < 0 || s.Level >= n {
				add(p+".level", "level %d outside [0,%d) for a %d-level tree (0 = roots)", s.Level, n, n)
			}
		}
	}
	for i := range b.ICN2Switches {
		p := fmt.Sprintf("%s.icn2Switches[%d]", path, i)
		switch l := b.ICN2Switches[i].Level; {
		case l < 0:
			add(p+".level", "must be >= 0, got %d", l)
		case icn2Levels > 0 && l >= icn2Levels:
			add(p+".level", "level %d outside [0,%d) for the ICN2 tree (0 = roots)", l, icn2Levels)
		}
		rate(p, &b.ICN2Switches[i].RateSpec)
	}
	for i := range b.Links {
		p := fmt.Sprintf("%s.links[%d]", path, i)
		group(p, b.Links[i].Group)
		network(p, b.Links[i].Network)
		rate(p, &b.Links[i].RateSpec)
	}
	if b.ICN2Links != nil {
		rate(path+".icn2Links", b.ICN2Links)
	}

	if b.Probe.Lambda != 0 && b.Probe.Fraction != 0 {
		add(path+".probe", "lambda and fraction are mutually exclusive")
	}
	if l := b.Probe.Lambda; l < 0 || math.IsNaN(l) || math.IsInf(l, 0) {
		add(path+".probe.lambda", "must be a positive finite rate, got %v", l)
	}
	if f := b.Probe.Fraction; f < 0 || f >= 1 || math.IsNaN(f) {
		add(path+".probe.fraction", "must be in (0,1), got %v", f)
	}
	if b.SLO != nil {
		if v := b.SLO.MaxLatency; v < 0 || math.IsNaN(v) {
			add(path+".slo.maxLatency", "must be positive, got %v", v)
		}
		if v := b.SLO.MinServedFraction; v < 0 || v > 1 || math.IsNaN(v) {
			add(path+".slo.minServedFraction", "must be in (0,1], got %v", v)
		}
	}
	for i, q := range b.Percentiles {
		p := fmt.Sprintf("%s.percentiles[%d]", path, i)
		if q <= 0 || q >= 1 || math.IsNaN(q) {
			add(p, "must be in (0,1), got %v", q)
		}
		if i > 0 && q <= b.Percentiles[i-1] {
			add(p, "percentiles must be strictly ascending (%v after %v)", q, b.Percentiles[i-1])
		}
	}
	if b.States.MaxExact < 0 {
		add(path+".states.maxExact", "must be positive, got %d", b.States.MaxExact)
	}
	if b.States.Samples < 0 {
		add(path+".states.samples", "must be positive, got %d", b.States.Samples)
	}

	if len(errs) == 0 {
		return nil
	}
	sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
	return errors.Join(errs...)
}

// fraction returns the effective probe fraction (0 when an absolute
// lambda is set).
func (p *ProbeSpec) fraction() float64 {
	if p.Lambda != 0 {
		return 0
	}
	if p.Fraction == 0 {
		return 0.5
	}
	return p.Fraction
}

// maxExact returns the effective exhaustive-enumeration ceiling.
func (s *StatesSpec) maxExact() int {
	if s.MaxExact == 0 {
		return 4096
	}
	return s.MaxExact
}

// samples returns the effective stratified sample count.
func (s *StatesSpec) samples() int {
	if s.Samples == 0 {
		return 1024
	}
	return s.Samples
}

// percentiles returns the effective percentile levels.
func (b *Block) percentiles() []float64 {
	if len(b.Percentiles) == 0 {
		return []float64{0.5, 0.9, 0.99}
	}
	return b.Percentiles
}

// ClassLabels lists the block's failure-class labels in failed-vector
// order: nodes, switches, icn2Switches, links, icn2Links — each in
// declaration order. Timeline events reference classes by these labels.
func (b *Block) ClassLabels() []string {
	var out []string
	for i := range b.Nodes {
		out = append(out, classLabel("nodes", "", b.Nodes[i].Group, -1))
	}
	for i := range b.Switches {
		s := &b.Switches[i]
		out = append(out, classLabel("switches", s.Network, s.Group, s.Level))
	}
	for i := range b.ICN2Switches {
		out = append(out, classLabel("icn2Switches", "", -1, b.ICN2Switches[i].Level))
	}
	for i := range b.Links {
		out = append(out, classLabel("links", b.Links[i].Network, b.Links[i].Group, -1))
	}
	if b.ICN2Links != nil {
		out = append(out, classLabel("icn2Links", "", -1, -1))
	}
	return out
}

// classLabel names a class in reports: "nodes[g0]", "switches[g1/icn1/L2]".
func classLabel(kind, network string, group, level int) string {
	var b strings.Builder
	b.WriteString(kind)
	b.WriteString("[")
	parts := []string{}
	if group >= 0 {
		parts = append(parts, fmt.Sprintf("g%d", group))
	}
	if network != "" {
		parts = append(parts, network)
	}
	if level >= 0 {
		parts = append(parts, fmt.Sprintf("L%d", level))
	}
	b.WriteString(strings.Join(parts, "/"))
	b.WriteString("]")
	return b.String()
}
