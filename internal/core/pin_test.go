package core

import (
	"bufio"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ccnet/ccnet/internal/cluster"
	"github.com/ccnet/ccnet/internal/netchar"
)

var update = flag.Bool("update", false, "rewrite testdata/model.pins")

// pinSearches are the (hi, tol) pairs of the recorded corpus: (1, 1e-4),
// which the service, perfab, scenario and optimize call; (0.01, 1e-4),
// which the paper's ablation used, as a low search ceiling; and (0.1,
// 1e-5) as a finer tolerance under a middle ceiling.
var pinSearches = [...]struct{ hi, tol float64 }{{1, 1e-4}, {0.01, 1e-4}, {0.1, 1e-5}}

// pinOptions are the six option settings of the pinned corpus: the
// default and each documented ambiguity switched on alone.
var pinOptions = [...]Options{
	{},
	{Variant: PaperLiteral},
	{InvertRelaxFactor: true},
	{CalibratedECNCrossing: true},
	{GatewayStoreAndForward: true},
	{UseLocality: true, LocalityFraction: 0.5},
}

// pinSpec is one model of the corpus; deg == nil is an intact build.
type pinSpec struct {
	sys *cluster.System
	msg netchar.MessageSpec
	opt Options
	deg *Degradation
}

// pinGroup is one line of testdata/model.pins.
type pinGroup struct {
	name  string
	specs []pinSpec
}

// randomDegraded draws a degraded variant of base: about a quarter of
// its clusters dropped, random survivor counts, distance overrides
// (sometimes one slice shared by several clusters of a height, as the
// performability layer's caches share them) and capacity factors.
func randomDegraded(r *rand.Rand, base *cluster.System) (*cluster.System, *Degradation) {
	nc, err := base.ICN2Levels()
	if err != nil {
		panic(err)
	}
	sys := &cluster.System{Name: base.Name + " degraded", Ports: base.Ports, ICN2: base.ICN2}
	deg := &Degradation{ICN2Levels: nc}
	shared := map[int][]float64{}
	total, first := 0, -1
	for i, cc := range base.Clusters {
		if r.Intn(4) == 0 {
			continue
		}
		if first < 0 {
			first = i
		}
		cd := ClusterDegradation{Nodes: 1 + r.Intn(base.ClusterNodes(i))}
		switch r.Intn(3) {
		case 0:
			cd.Dist = randDist(r, cc.TreeLevels)
		case 1:
			if shared[cc.TreeLevels] == nil {
				shared[cc.TreeLevels] = randDist(r, cc.TreeLevels)
			}
			cd.Dist = shared[cc.TreeLevels]
		}
		if r.Intn(2) == 0 {
			cd.IntraCapacity = 1 + 2*r.Float64()
		}
		if r.Intn(2) == 0 {
			cd.ECNCapacity = 1 + 2*r.Float64()
		}
		sys.Clusters = append(sys.Clusters, cc)
		deg.Clusters = append(deg.Clusters, cd)
		total += cd.Nodes
	}
	if first < 0 {
		first = 0
		sys.Clusters = append(sys.Clusters, base.Clusters[0])
		deg.Clusters = append(deg.Clusters, ClusterDegradation{Nodes: 1})
		total = 1
	}
	if total < 2 {
		deg.Clusters[0].Nodes = base.ClusterNodes(first)
	}
	if r.Intn(2) == 0 {
		deg.ICN2Dist = randDist(r, nc)
	}
	if r.Intn(2) == 0 {
		deg.ICN2Capacity = 1 + r.Float64()
	}
	return sys, deg
}

// pinCorpus is the pinned model corpus: the three presets under every
// option setting and nine message geometries, tallSystem under every
// option setting, and seeded random, wide and degraded systems with a
// random option setting each. It draws from randomSystem,
// randomWideSystem, randomMsg and randDist, so changing those
// generators changes the corpus and fails the pins.
func pinCorpus() []pinGroup {
	var groups []pinGroup
	presets := []struct {
		name string
		sys  func() *cluster.System
	}{
		{"544", cluster.System544},
		{"1120", cluster.System1120},
		{"small", cluster.SmallTestSystem},
	}
	for _, p := range presets {
		for oi, opt := range pinOptions {
			g := pinGroup{name: fmt.Sprintf("%s/opt%d", p.name, oi)}
			for _, flits := range []int{16, 32, 64} {
				for _, fb := range []int{64, 256, 512} {
					g.specs = append(g.specs, pinSpec{sys: p.sys(), opt: opt,
						msg: netchar.MessageSpec{Flits: flits, FlitBytes: fb}})
				}
			}
			groups = append(groups, g)
		}
	}
	tall := pinGroup{name: "tall"}
	for _, opt := range pinOptions {
		tall.specs = append(tall.specs, pinSpec{sys: tallSystem(), opt: opt,
			msg: netchar.MessageSpec{Flits: 32, FlitBytes: 256}})
	}
	groups = append(groups, tall)

	r := rand.New(rand.NewSource(41))
	randomGroups := []struct {
		name   string
		groups int
		size   int
		draw   func() pinSpec
	}{
		{"random", 4, 50, func() pinSpec {
			return pinSpec{sys: randomSystem(r)}
		}},
		{"wide", 2, 25, func() pinSpec {
			return pinSpec{sys: randomWideSystem(r)}
		}},
		{"degraded", 3, 40, func() pinSpec {
			sys, deg := randomDegraded(r, randomSystem(r))
			return pinSpec{sys: sys, deg: deg}
		}},
		{"degraded-wide", 1, 25, func() pinSpec {
			sys, deg := randomDegraded(r, randomWideSystem(r))
			return pinSpec{sys: sys, deg: deg}
		}},
	}
	for _, rg := range randomGroups {
		for gi := 0; gi < rg.groups; gi++ {
			g := pinGroup{name: fmt.Sprintf("%s/%d", rg.name, gi)}
			for k := 0; k < rg.size; k++ {
				s := rg.draw()
				s.msg = randomMsg(r)
				s.opt = pinOptions[r.Intn(len(pinOptions))]
				g.specs = append(g.specs, s)
			}
			groups = append(groups, g)
		}
	}
	return groups
}

// build constructs the spec's model, through pre when it is non-nil.
func (s *pinSpec) build(pre *Precompute) (*Model, error) {
	return NewDegradedWith(s.sys, s.msg, s.opt, s.deg, pre)
}

// modelPinBits appends the pinned outputs of m: the raw bits of every
// pinned SaturationPoint search, and of Evaluate's mean, intra and
// inter latency and saturated flag at 0.5× and 0.95× of each point.
func modelPinBits(buf []byte, m *Model) []byte {
	for _, s := range pinSearches {
		sat := m.SaturationPoint(s.hi, s.tol)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(sat))
		for _, frac := range [...]float64{0.5, 0.95} {
			res := m.Evaluate(frac * sat)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(res.MeanLatency))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(res.MeanIntra))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(res.MeanInter))
			if res.Saturated {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
	}
	return buf
}

// TestModelPinned pins SaturationPoint and Evaluate bit for bit over
// pinCorpus: each group's line in testdata/model.pins is an FNV-64a
// digest of every model's modelPinBits. Each model is built twice, from
// scratch and through a handle shared by its group (used before the
// group's next build), and both builds must give the same bits. Rewrite
// with -update only for an intended behaviour change.
func TestModelPinned(t *testing.T) {
	var got []string
	var cold, warm []byte
	for _, g := range pinCorpus() {
		h := fnv.New64a()
		pre := NewPrecompute()
		for i := range g.specs {
			s := &g.specs[i]
			mc, err := s.build(nil)
			if err != nil {
				t.Fatalf("%s spec %d: %v", g.name, i, err)
			}
			cold = modelPinBits(cold[:0], mc)
			mw, err := s.build(pre)
			if err != nil {
				t.Fatalf("%s spec %d (handle): %v", g.name, i, err)
			}
			warm = modelPinBits(warm[:0], mw)
			if string(cold) != string(warm) {
				t.Fatalf("%s spec %d: handle build differs from a cold build", g.name, i)
			}
			h.Write(cold)
		}
		got = append(got, fmt.Sprintf("%s %d %016x", g.name, len(g.specs), h.Sum64()))
	}
	checkPins(t, filepath.Join("testdata", "model.pins"), got)
}

// checkPins compares result lines against a testdata file, or rewrites
// the file under -update.
func checkPins(t *testing.T, path string, got []string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d lines, run produced %d", path, len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("drift:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
