package scenario

import (
	"fmt"

	"github.com/ccnet/ccnet/internal/cluster"
	"github.com/ccnet/ccnet/internal/core"
	"github.com/ccnet/ccnet/internal/netchar"
	"github.com/ccnet/ccnet/internal/traffic"
)

// BuildSystem materializes the system description. The spec must have
// passed Validate; structural constraints only the cluster package can
// check (C = 2(m/2)^n, per-network sanity) still surface here with the
// system field path attached.
func (s *Spec) BuildSystem() (*cluster.System, error) {
	return s.System.Build(s.Name)
}

// Build materializes a bare system section under the given name; the
// HTTP service's evaluate and sweep endpoints build systems without a
// surrounding scenario. The spec must have passed Validate.
func (spec *SystemSpec) Build(name string) (*cluster.System, error) {
	sys, err := spec.baseSystem(name)
	if err != nil {
		return nil, err
	}
	if f := spec.ICN2BandwidthScale; f != 0 && f != 1 {
		sys = sys.ScaleICN2Bandwidth(f)
	}
	if err := sys.Validate(); err != nil {
		return nil, fieldErr("system", "%v", err)
	}
	return sys, nil
}

func (spec *SystemSpec) baseSystem(name string) (*cluster.System, error) {
	if spec.Preset != "" {
		switch spec.Preset {
		case "N=1120":
			return cluster.System1120(), nil
		case "N=544":
			return cluster.System544(), nil
		case "small":
			return cluster.SmallTestSystem(), nil
		}
		return nil, fieldErr("system.preset", "unknown preset %q", spec.Preset)
	}

	sys := &cluster.System{Name: name, Ports: spec.Ports}
	icn2 := netchar.Net1
	if spec.ICN2 != nil {
		c, err := spec.ICN2.resolve("system.icn2")
		if err != nil {
			return nil, err
		}
		icn2 = c
	}
	sys.ICN2 = icn2
	for i, g := range spec.Clusters {
		p := fmt.Sprintf("system.clusters[%d]", i)
		icn1, ecn1 := netchar.Net1, netchar.Net2
		if g.ICN1 != nil {
			c, err := g.ICN1.resolve(p + ".icn1")
			if err != nil {
				return nil, err
			}
			icn1 = c
		}
		if g.ECN1 != nil {
			c, err := g.ECN1.resolve(p + ".ecn1")
			if err != nil {
				return nil, err
			}
			ecn1 = c
		}
		for n := 0; n < groupCount(g); n++ {
			sys.Clusters = append(sys.Clusters, cluster.Config{
				TreeLevels: g.TreeLevels, ICN1: icn1, ECN1: ecn1,
			})
		}
	}
	return sys, nil
}

// Options maps a bare model section to core.Options; storeAndForward
// selects the analysisSF column's gateway correction. The HTTP service's
// evaluate and sweep endpoints use it directly (they carry no traffic
// pattern); the scenario path goes through Spec.ModelOptions, which adds
// the locality extension.
func (m *ModelSpec) Options(storeAndForward bool) core.Options {
	opt := core.Options{
		InvertRelaxFactor:      m.InvertRelaxFactor,
		CalibratedECNCrossing:  m.CalibratedECNCrossing,
		GatewayStoreAndForward: storeAndForward,
	}
	if m.Variant == "paper-literal" {
		opt.Variant = core.PaperLiteral
	}
	return opt
}

// ModelOptions maps the model section (and the traffic pattern, for the
// locality extension) to core.Options. storeAndForward selects the
// analysisSF column's gateway correction.
func (s *Spec) ModelOptions(storeAndForward bool) core.Options {
	opt := s.Model.Options(storeAndForward)
	// The cluster-local pattern has an analytical counterpart (the
	// paper's future-work extension); use it so model and simulator
	// describe the same workload. Hotspot has none — its analytical
	// columns keep the uniform assumption, which the docs call out.
	if s.Traffic.Pattern == "cluster-local" {
		opt.UseLocality = true
		opt.LocalityFraction = s.Traffic.LocalFraction
	}
	return opt
}

// Pattern builds the simulator's destination pattern; nil means the
// paper's uniform pattern.
func (s *Spec) Pattern(sys *cluster.System) (traffic.Pattern, error) {
	switch s.Traffic.Pattern {
	case "", "uniform":
		return nil, nil
	case "hotspot":
		if s.Traffic.HotNode >= sys.TotalNodes() {
			return nil, fieldErr("traffic.hotNode", "node %d outside system of %d nodes",
				s.Traffic.HotNode, sys.TotalNodes())
		}
		return traffic.Hotspot{N: sys.TotalNodes(), Hot: s.Traffic.HotNode, P: s.Traffic.HotFraction}, nil
	case "cluster-local":
		sizes := make([]int, sys.NumClusters())
		for i := range sizes {
			sizes[i] = sys.ClusterNodes(i)
		}
		return traffic.ClusterLocal{Part: traffic.NewPartition(sizes), PLocal: s.Traffic.LocalFraction}, nil
	}
	return nil, fieldErr("traffic.pattern", "unknown pattern %q", s.Traffic.Pattern)
}

// BuildModels constructs one analytical model per flit-size series
// (traffic.flitBytes entry), in series order. storeAndForward selects the
// analysisSF gateway correction, as in ModelOptions. The campaign runner
// and the HTTP service share this path, so a spec evaluates identically
// whether it arrives as a file or a request body.
func (s *Spec) BuildModels(sys *cluster.System, storeAndForward bool) ([]*core.Model, error) {
	models := make([]*core.Model, 0, len(s.Traffic.FlitBytes))
	for _, dm := range s.Traffic.FlitBytes {
		msg := netchar.MessageSpec{Flits: s.Traffic.Flits, FlitBytes: dm}
		m, err := core.New(sys, msg, s.ModelOptions(storeAndForward))
		if err != nil {
			return nil, fieldErr("traffic", "%v", err)
		}
		models = append(models, m)
	}
	return models, nil
}

// Grid materializes the lambda grid. models holds the per-series paper
// models, consulted only by the auto grid (Max = AutoFraction × the
// smallest per-series saturation point, so every series' curve fits).
func (s *Spec) Grid(models []*core.Model) ([]float64, error) {
	la := &s.Traffic.Lambda
	if len(la.Values) > 0 {
		return append([]float64(nil), la.Values...), nil
	}
	max := la.Max
	if la.Auto {
		frac := la.AutoFraction
		if frac == 0 {
			frac = 0.95
		}
		sat := 0.0
		for i, m := range models {
			p := knee(m)
			if p <= 0 {
				return nil, fieldErr("traffic.lambda.auto",
					"series %d (Lm=%d) saturates at any positive rate", i, s.Traffic.FlitBytes[i])
			}
			if sat == 0 || p < sat {
				sat = p
			}
		}
		max = frac * sat
	}
	min := la.Min
	if min == 0 {
		min = max / float64(la.Points)
	}
	// Validate() bounds min and points, but with an auto grid the max is
	// only known here — reject an explicit min at or past it rather than
	// letting core.LambdaGrid panic.
	if min >= max {
		return nil, fieldErr("traffic.lambda.min",
			"%v is not below the derived max %v", min, max)
	}
	return core.LambdaGrid(min, max, la.Points), nil
}
