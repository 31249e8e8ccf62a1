// Package scenario implements a declarative what-if layer over the
// analytical model and the simulator: a JSON scenario file describes a
// heterogeneous cluster-of-clusters system, a traffic section, which
// engines to run (analysis, simulation, or both) and optional assertions;
// a validating loader turns files into Specs with precise field-path
// error messages; and a parallel campaign runner fans a scenario set —
// and each scenario's parameter grid — out across a worker pool with
// deterministic per-job seeds, aggregating everything into one Result
// per scenario (rendered by Render, WriteCSV and RenderChart).
//
// The paper's own evaluation section is expressed in this format:
// examples/scenarios/fig3.json … fig6.json are the validation figures,
// and the fig7, ablation, nonuniform and bufferdepth directories hold one
// file per curve of the remaining experiments. Any system the model
// accepts is expressible too: arbitrary cluster counts and tree shapes,
// per-cluster network classes, custom bandwidth/latency characteristics,
// hotspot and cluster-local traffic, and automatic load grids that stop
// short of the analytical saturation point.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/ccnet/ccnet/internal/fleetsim"
	"github.com/ccnet/ccnet/internal/netchar"
	"github.com/ccnet/ccnet/internal/perfab"
)

// SchemaVersion identifies the scenario/spec JSON schema generation;
// the service's /v1/version endpoint reports it. Bump on an
// incompatible change to the spec format.
const SchemaVersion = "1"

// Spec is one fully described scenario. The zero value is invalid;
// construct Specs with Parse or Load so defaults and validation apply.
type Spec struct {
	// Kind selects the spec family: "scenario" (the default — the
	// analysis/simulation campaign format) or "fleetsim" (a time-domain
	// fleet simulation driven by the performability block's failure
	// classes). Optimizer search specs carry kind "optimize" and load
	// via `ccscen optimize` instead of this loader.
	Kind string `json:"kind,omitempty"`
	// Name identifies the scenario in results and CSV output (required).
	Name string `json:"name"`
	// Title is the human-readable headline; defaults to Name.
	Title string `json:"title,omitempty"`
	// Description is free-form documentation shown by `ccscen list`.
	Description string `json:"description,omitempty"`
	// Seed is the campaign base seed (default 1); every simulation job
	// derives its own stream from it, the scenario name and the job's
	// grid position, so results do not depend on worker scheduling.
	Seed uint64 `json:"seed,omitempty"`

	System     SystemSpec      `json:"system"`
	Traffic    TrafficSpec     `json:"traffic"`
	Engines    EngineSpec      `json:"engines"`
	Model      ModelSpec       `json:"model"`
	Assertions []AssertionSpec `json:"assertions,omitempty"`

	// Performability is the optional failure/repair block: per-class
	// MTTF/MTTR over the system's cluster groups, probe and SLO. It is
	// ignored by `ccscen run` campaigns; `ccscen perf` and POST
	// /v1/performability analyze it (see Spec.PerformabilityStudy).
	Performability *perfab.Block `json:"performability,omitempty"`

	// FleetSim is the time-domain fleet-simulation block (kind
	// "fleetsim" only): horizon, epoch width, scripted timeline and
	// trajectory assertions over the performability block's failure
	// classes. `ccscen fleet` and POST /v1/fleetsim run it (see
	// Spec.FleetStudy).
	FleetSim *fleetsim.Block `json:"fleetsim,omitempty"`
}

// SystemSpec describes the cluster-of-clusters organization, either as a
// named preset or as an explicit ports/clusters/icn2 description.
type SystemSpec struct {
	// Preset selects a built-in organization: "N=1120", "N=544" (Table 1)
	// or "small" (the 4-cluster test miniature). When set, the explicit
	// fields other than ICN2BandwidthScale must be absent.
	Preset string `json:"preset,omitempty"`

	// Ports is the switch arity m shared by every network (even, >= 2).
	Ports int `json:"ports,omitempty"`
	// Clusters lists cluster groups in order; Count expands a group into
	// that many identical clusters.
	Clusters []ClusterGroupSpec `json:"clusters,omitempty"`
	// ICN2 is the global inter-cluster network class (default "net1").
	ICN2 *NetSpec `json:"icn2,omitempty"`

	// ICN2BandwidthScale multiplies the ICN2 bandwidth (the Fig 7 knob);
	// 0 means 1.
	ICN2BandwidthScale float64 `json:"icn2BandwidthScale,omitempty"`
}

// ClusterGroupSpec expands into Count identical clusters.
type ClusterGroupSpec struct {
	// Count is how many clusters this group contributes (default 1).
	Count int `json:"count,omitempty"`
	// TreeLevels is n_i: the group's clusters are m-port n_i-trees.
	TreeLevels int `json:"treeLevels"`
	// ICN1 and ECN1 are the group's network classes (defaults "net1" and
	// "net2", the paper's validation assignment).
	ICN1 *NetSpec `json:"icn1,omitempty"`
	ECN1 *NetSpec `json:"ecn1,omitempty"`
}

// NetSpec is a network class: either a named Table 2 preset ("net1",
// "net2") or explicit characteristics. In JSON it is a string or an
// object {"bandwidth": …, "networkLatency": …, "switchLatency": …}.
type NetSpec struct {
	Name string
	Char *netchar.Characteristics
}

// netCharJSON mirrors netchar.Characteristics with JSON tags so scenario
// files use lowerCamelCase keys.
type netCharJSON struct {
	Bandwidth      float64 `json:"bandwidth"`
	NetworkLatency float64 `json:"networkLatency"`
	SwitchLatency  float64 `json:"switchLatency"`
}

// UnmarshalJSON accepts a preset name or a characteristics object.
func (n *NetSpec) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		return json.Unmarshal(data, &n.Name)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c netCharJSON
	if err := dec.Decode(&c); err != nil {
		return err
	}
	n.Char = &netchar.Characteristics{
		Bandwidth:      c.Bandwidth,
		NetworkLatency: c.NetworkLatency,
		SwitchLatency:  c.SwitchLatency,
	}
	return nil
}

// MarshalJSON renders the preset name or the characteristics object.
func (n NetSpec) MarshalJSON() ([]byte, error) {
	if n.Name != "" {
		return json.Marshal(n.Name)
	}
	if n.Char == nil {
		return nil, errors.New("scenario: empty network spec")
	}
	return json.Marshal(netCharJSON{
		Bandwidth:      n.Char.Bandwidth,
		NetworkLatency: n.Char.NetworkLatency,
		SwitchLatency:  n.Char.SwitchLatency,
	})
}

// Resolve returns the concrete characteristics of the network spec, or
// an error rooted at path. The optimizer resolves axis tiers through the
// same rules the scenario loader applies to system sections.
func (n *NetSpec) Resolve(path string) (netchar.Characteristics, error) {
	return n.resolve(path)
}

// resolve returns the concrete characteristics, or an error naming path.
func (n *NetSpec) resolve(path string) (netchar.Characteristics, error) {
	if n == nil {
		return netchar.Characteristics{}, fieldErr(path, "missing network spec")
	}
	if n.Name != "" {
		switch strings.ToLower(n.Name) {
		case "net1":
			return netchar.Net1, nil
		case "net2":
			return netchar.Net2, nil
		default:
			return netchar.Characteristics{}, fieldErr(path,
				"unknown network class %q (valid: \"net1\", \"net2\", or an object with bandwidth/networkLatency/switchLatency)", n.Name)
		}
	}
	if n.Char == nil {
		return netchar.Characteristics{}, fieldErr(path, "empty network spec")
	}
	if err := n.Char.Validate(); err != nil {
		return netchar.Characteristics{}, fieldErr(path, "%v", err)
	}
	return *n.Char, nil
}

// TrafficSpec describes the workload: destination pattern, message
// geometry (one result series per flit size) and the load grid.
type TrafficSpec struct {
	// Pattern is "uniform" (default), "hotspot" or "cluster-local".
	Pattern string `json:"pattern,omitempty"`
	// HotNode and HotFraction parameterize the hotspot pattern: HotFraction
	// of each node's traffic goes to node HotNode.
	HotNode     int     `json:"hotNode,omitempty"`
	HotFraction float64 `json:"hotFraction,omitempty"`
	// LocalFraction parameterizes cluster-local: that fraction of traffic
	// stays in the source's own cluster. The analytical columns use the
	// locality-extended model at the same fraction.
	LocalFraction float64 `json:"localFraction,omitempty"`

	// Flits is the message length M; FlitBytes lists the flit sizes d_m,
	// one result series per entry.
	Flits     int   `json:"flits"`
	FlitBytes []int `json:"flitBytes"`

	Lambda LambdaSpec `json:"lambda"`
}

// LambdaSpec is the traffic-rate grid. Exactly one of Values or
// (Points with Max or Auto) describes the x axis.
type LambdaSpec struct {
	// Values is an explicit ascending grid; overrides all other fields.
	Values []float64 `json:"values,omitempty"`

	// Min/Max/Points build an even grid as core.LambdaGrid does; Min
	// defaults to Max/Points, matching the paper's figures.
	Min    float64 `json:"min,omitempty"`
	Max    float64 `json:"max,omitempty"`
	Points int     `json:"points,omitempty"`

	// Auto derives Max from the analytical saturation point: Max =
	// AutoFraction × min over series of core.SaturationPoint. The grid is
	// then deterministic for a system+message geometry, independent of
	// workers and seeds.
	Auto bool `json:"auto,omitempty"`
	// AutoFraction defaults to 0.95.
	AutoFraction float64 `json:"autoFraction,omitempty"`
}

// EngineSpec selects which engines evaluate the grid and tunes the
// simulation protocol.
type EngineSpec struct {
	// Analysis runs the paper's analytical model verbatim (default true).
	Analysis *bool `json:"analysis,omitempty"`
	// AnalysisSF runs the store-and-forward-gateway model variant, the
	// physically realizable reading (default true).
	AnalysisSF *bool `json:"analysisSF,omitempty"`
	// Simulation runs the discrete-event simulator (default false — the
	// analytical engines are the cheap what-if path).
	Simulation bool `json:"simulation,omitempty"`

	// SimEvery simulates every k-th grid point (default 2, as in the
	// paper's figures; 1 simulates every point).
	SimEvery int `json:"simEvery,omitempty"`
	// Warmup/Measure are the message counts of the measurement protocol
	// (defaults 10000/100000, the paper's counts).
	Warmup  uint64 `json:"warmup,omitempty"`
	Measure uint64 `json:"measure,omitempty"`
	// Replications runs each simulated point several times with derived
	// seeds and reports a Student-t interval (default 1).
	Replications int `json:"replications,omitempty"`
	// MaxBacklog and BufferDepth forward to sim.Config.
	MaxBacklog  int `json:"maxBacklog,omitempty"`
	BufferDepth int `json:"bufferDepth,omitempty"`
}

// analysisOn/analysisSFOn report the effective engine switches.
func (e *EngineSpec) analysisOn() bool   { return e.Analysis == nil || *e.Analysis }
func (e *EngineSpec) analysisSFOn() bool { return e.AnalysisSF == nil || *e.AnalysisSF }

// ModelSpec tunes the documented model ambiguities (core.Options).
type ModelSpec struct {
	// Variant is "reconstructed" (default) or "paper-literal".
	Variant           string `json:"variant,omitempty"`
	InvertRelaxFactor bool   `json:"invertRelaxFactor,omitempty"`
	// CalibratedECNCrossing switches to the 2r-link ECN1-crossing
	// distribution of a leaf-attached gateway.
	CalibratedECNCrossing bool `json:"calibratedECNCrossing,omitempty"`
}

// AssertionSpec is one machine-checked property of the scenario result.
type AssertionSpec struct {
	// Type is "saturation", "maxRelError" or "monotonic".
	Type string `json:"type"`

	// saturation: the analytical saturation point of every series must
	// lie in [Min, Max] (either bound may be 0 = unchecked, but not both).
	Min float64 `json:"min,omitempty"`
	Max float64 `json:"max,omitempty"`

	// maxRelError: the mean light-load |model−sim|/sim over the simulated
	// points must not exceed Percent. Column selects the model column
	// ("analysis" or "analysisSF", default "analysisSF");
	// LightLoadFraction bounds the region (default 0.7 of each series'
	// last mutually stable rate).
	Percent           float64 `json:"percent,omitempty"`
	Column            string  `json:"column,omitempty"`
	LightLoadFraction float64 `json:"lightLoadFraction,omitempty"`
}

// fieldErr builds a field-path error: "traffic.flits: must be positive".
func fieldErr(path, format string, args ...any) error {
	return fmt.Errorf("%s: %s", path, fmt.Sprintf(format, args...))
}

// knownPatterns lists the valid traffic pattern names.
var knownPatterns = []string{"uniform", "hotspot", "cluster-local"}

// knownPresets lists the valid system presets.
var knownPresets = []string{"N=1120", "N=544", "small"}

// knownKinds lists the spec kinds this loader accepts; "optimize" is
// valid in files but loads through the optimizer's own loader.
var knownKinds = []string{"scenario", "fleetsim", "optimize"}

// Validate checks the whole spec and returns every problem found, each a
// field-path error, joined with errors.Join. A nil return means the spec
// can be built and run.
func (s *Spec) Validate() error {
	var errs []error
	add := func(path, format string, args ...any) {
		errs = append(errs, fieldErr(path, format, args...))
	}

	// --- kind -----------------------------------------------------------
	switch s.Kind {
	case "", "scenario":
		if s.FleetSim != nil {
			add("fleetsim", `section requires kind "fleetsim"`)
		}
	case "fleetsim":
		if s.FleetSim == nil {
			add("fleetsim", `section required for kind "fleetsim" (horizon, epoch, timeline)`)
		}
		if s.Performability == nil {
			add("performability", `section required for kind "fleetsim" (it defines the failure classes)`)
		}
	case "optimize":
		add("kind", `"optimize" is an optimizer search spec; load it via ccscen optimize`)
	default:
		add("kind", "unknown kind %q (valid: %s)", s.Kind, strings.Join(knownKinds, ", "))
	}

	if s.Name == "" {
		add("name", "required")
	} else if !nameOK(s.Name) {
		// The name keys CSV files under -outdir, so it must be a safe
		// single path element.
		add("name", "%q may only contain letters, digits, '.', '-' and '_'", s.Name)
	}

	// --- system ---------------------------------------------------------
	errs = append(errs, s.System.validate()...)

	// --- traffic --------------------------------------------------------
	tr := &s.Traffic
	switch tr.Pattern {
	case "", "uniform":
		if tr.HotFraction != 0 || tr.LocalFraction != 0 {
			add("traffic.pattern", "uniform pattern excludes hotFraction/localFraction")
		}
	case "hotspot":
		if tr.HotFraction <= 0 || tr.HotFraction > 1 || math.IsNaN(tr.HotFraction) {
			add("traffic.hotFraction", "must be in (0,1], got %v", tr.HotFraction)
		}
		if tr.HotNode < 0 {
			add("traffic.hotNode", "must be >= 0, got %d", tr.HotNode)
		}
	case "cluster-local":
		if tr.LocalFraction <= 0 || tr.LocalFraction >= 1 || math.IsNaN(tr.LocalFraction) {
			add("traffic.localFraction", "must be in (0,1), got %v", tr.LocalFraction)
		}
	default:
		add("traffic.pattern", "unknown pattern %q (valid: %s)",
			tr.Pattern, strings.Join(knownPatterns, ", "))
	}
	if tr.Flits <= 0 {
		add("traffic.flits", "must be positive, got %d", tr.Flits)
	}
	if len(tr.FlitBytes) == 0 {
		add("traffic.flitBytes", "at least one flit size required")
	}
	for i, dm := range tr.FlitBytes {
		if dm <= 0 {
			add(fmt.Sprintf("traffic.flitBytes[%d]", i), "must be positive, got %d", dm)
		}
	}

	// --- traffic.lambda -------------------------------------------------
	errs = append(errs, tr.Lambda.validate("traffic.lambda")...)

	// --- engines --------------------------------------------------------
	en := &s.Engines
	if !en.analysisOn() && !en.analysisSFOn() && !en.Simulation {
		add("engines", "every engine disabled; enable analysis, analysisSF or simulation")
	}
	if en.SimEvery < 0 {
		add("engines.simEvery", "must be >= 1 (default 2), got %d", en.SimEvery)
	}
	if en.Replications < 0 {
		add("engines.replications", "must be >= 1, got %d", en.Replications)
	}
	if en.MaxBacklog < 0 {
		add("engines.maxBacklog", "must be positive, got %d", en.MaxBacklog)
	}
	if en.BufferDepth < 0 {
		add("engines.bufferDepth", "must be >= 1, got %d", en.BufferDepth)
	}

	// --- model ----------------------------------------------------------
	if err := s.Model.Validate(); err != nil {
		errs = append(errs, err)
	}

	// --- performability -------------------------------------------------
	if s.Performability != nil {
		// Group references can only be checked against a well-formed
		// system section; system errors are already reported above.
		if shapes := s.System.groupShapes(); shapes != nil {
			if err := s.Performability.Validate("performability", shapes, s.System.icn2Levels(shapes)); err != nil {
				errs = append(errs, err)
			}
		}
	}

	// --- fleetsim -------------------------------------------------------
	if s.FleetSim != nil && s.Performability != nil {
		if err := s.FleetSim.Validate("fleetsim", s.Performability.ClassLabels()); err != nil {
			errs = append(errs, err)
		}
	}

	// --- assertions -----------------------------------------------------
	for i, a := range s.Assertions {
		p := fmt.Sprintf("assertions[%d]", i)
		switch a.Type {
		case "saturation":
			if a.Min == 0 && a.Max == 0 {
				add(p, "saturation assertion needs min and/or max")
			}
			if a.Max != 0 && a.Min > a.Max {
				add(p+".min", "must not exceed max (%v > %v)", a.Min, a.Max)
			}
			if a.Percent != 0 || a.Column != "" || a.LightLoadFraction != 0 {
				add(p, "saturation assertion excludes percent/column/lightLoadFraction")
			}
		case "maxRelError":
			if !en.Simulation {
				add(p, "maxRelError assertion requires engines.simulation: true")
			}
			if a.Percent <= 0 {
				add(p+".percent", "must be positive, got %v", a.Percent)
			}
			switch a.Column {
			case "", "analysis", "analysisSF":
			default:
				add(p+".column", "unknown column %q (valid: analysis, analysisSF)", a.Column)
			}
			if a.LightLoadFraction < 0 || a.LightLoadFraction > 1 {
				add(p+".lightLoadFraction", "must be in (0,1], got %v", a.LightLoadFraction)
			}
		case "monotonic":
			if a.Min != 0 || a.Max != 0 || a.Percent != 0 {
				add(p, "monotonic assertion takes no parameters")
			}
		case "":
			add(p+".type", "required (valid: saturation, maxRelError, monotonic)")
		default:
			add(p+".type", "unknown assertion type %q (valid: saturation, maxRelError, monotonic)", a.Type)
		}
	}

	if len(errs) == 0 {
		return nil
	}
	sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
	return errors.Join(errs...)
}

// Validate checks the system section alone. The HTTP service's evaluate
// and sweep endpoints accept a bare SystemSpec, so this is exported
// separately from the whole-scenario Validate; field paths are rooted at
// "system" either way.
func (sys *SystemSpec) Validate() error {
	errs := sys.validate()
	if len(errs) == 0 {
		return nil
	}
	sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
	return errors.Join(errs...)
}

// validate returns every problem with the system section as field-path
// errors.
func (sys *SystemSpec) validate() []error {
	var errs []error
	add := func(path, format string, args ...any) {
		errs = append(errs, fieldErr(path, format, args...))
	}
	if sys.Preset != "" {
		if !presetKnown(sys.Preset) {
			add("system.preset", "unknown preset %q (valid: %s)",
				sys.Preset, strings.Join(knownPresets, ", "))
		}
		if sys.Ports != 0 || len(sys.Clusters) != 0 || sys.ICN2 != nil {
			add("system.preset", "preset excludes explicit ports/clusters/icn2 fields")
		}
	} else {
		if sys.Ports < 2 || sys.Ports%2 != 0 {
			add("system.ports", "must be an even integer >= 2, got %d", sys.Ports)
		}
		if len(sys.Clusters) == 0 {
			add("system.clusters", "at least one cluster group required")
		}
		total := 0
		for i, g := range sys.Clusters {
			p := fmt.Sprintf("system.clusters[%d]", i)
			if g.Count < 0 {
				add(p+".count", "must be >= 0, got %d", g.Count)
			}
			if g.TreeLevels < 1 || g.TreeLevels > 32 {
				add(p+".treeLevels", "must be in [1,32], got %d", g.TreeLevels)
			}
			if g.ICN1 != nil {
				if _, err := g.ICN1.resolve(p + ".icn1"); err != nil {
					errs = append(errs, err)
				}
			}
			if g.ECN1 != nil {
				if _, err := g.ECN1.resolve(p + ".ecn1"); err != nil {
					errs = append(errs, err)
				}
			}
			total += groupCount(g)
		}
		if sys.ICN2 != nil {
			if _, err := sys.ICN2.resolve("system.icn2"); err != nil {
				errs = append(errs, err)
			}
		}
		if len(sys.Clusters) > 0 && total < 2 {
			add("system.clusters", "groups expand to %d clusters; need at least 2", total)
		}
	}
	if sys.ICN2BandwidthScale < 0 {
		add("system.icn2BandwidthScale", "must be positive, got %v", sys.ICN2BandwidthScale)
	}
	return errs
}

// Validate checks a lambda grid description alone, with field paths
// rooted at root (the scenario loader uses "traffic.lambda", the HTTP
// service "lambda").
func (la *LambdaSpec) Validate(root string) error {
	errs := la.validate(root)
	if len(errs) == 0 {
		return nil
	}
	sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
	return errors.Join(errs...)
}

func (la *LambdaSpec) validate(root string) []error {
	var errs []error
	add := func(path, format string, args ...any) {
		errs = append(errs, fieldErr(path, format, args...))
	}
	switch {
	case len(la.Values) > 0:
		if la.Min != 0 || la.Max != 0 || la.Points != 0 || la.Auto {
			add(root+".values", "explicit values exclude min/max/points/auto")
		}
		for i, v := range la.Values {
			p := fmt.Sprintf("%s.values[%d]", root, i)
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				add(p, "must be a positive finite rate, got %v", v)
			}
			if i > 0 && v <= la.Values[i-1] {
				add(p, "values must be strictly ascending (%v after %v)", v, la.Values[i-1])
			}
		}
	case la.Auto:
		if la.Max != 0 {
			add(root+".max", "auto grid excludes an explicit max")
		}
		if la.Points < 2 {
			add(root+".points", "must be >= 2, got %d", la.Points)
		}
		if la.Min < 0 || math.IsNaN(la.Min) {
			add(root+".min", "must be >= 0, got %v", la.Min)
		}
		if la.AutoFraction < 0 || la.AutoFraction > 1 {
			add(root+".autoFraction", "must be in (0,1], got %v", la.AutoFraction)
		}
	default:
		if la.Max <= 0 || math.IsNaN(la.Max) {
			add(root+".max", "must be a positive rate (or set auto/values), got %v", la.Max)
		}
		if la.Points < 2 {
			add(root+".points", "must be >= 2, got %d", la.Points)
		}
		if la.Min < 0 || (la.Max > 0 && la.Min >= la.Max) {
			add(root+".min", "must be in [0, max), got %v", la.Min)
		}
		if la.AutoFraction != 0 {
			add(root+".autoFraction", "only meaningful with auto: true")
		}
	}
	return errs
}

// Validate checks the model section; exported for the same service reuse
// as SystemSpec.Validate.
func (m *ModelSpec) Validate() error {
	switch m.Variant {
	case "", "reconstructed", "paper-literal":
		return nil
	}
	return fieldErr("model.variant",
		"unknown variant %q (valid: reconstructed, paper-literal)", m.Variant)
}

// nameOK restricts scenario names to safe path elements.
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

func presetKnown(name string) bool {
	for _, p := range knownPresets {
		if p == name {
			return true
		}
	}
	return false
}

// groupCount returns the effective cluster count of a group (default 1).
func groupCount(g ClusterGroupSpec) int {
	if g.Count == 0 {
		return 1
	}
	return g.Count
}
