package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/ccnet/ccnet/internal/cluster"
	"github.com/ccnet/ccnet/internal/netchar"
)

// referenceSaturationPoint is the search SaturationPoint must match bit
// for bit: the plain bisection, with a full check of every queue at
// every probe.
func referenceSaturationPoint(m *Model, hi, tol float64) float64 {
	if !m.Saturated(hi) {
		return hi
	}
	lo := hi * math.Ldexp(1, -60)
	if m.Saturated(lo) {
		return 0
	}
	for (hi-lo)/hi > tol {
		mid := (lo + hi) / 2
		if m.Saturated(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo
}

// searchCases are the (hi, tol) pairs the reference comparisons run:
// the pinned callers' pairs plus a tight, a loose and a low ceiling.
var searchCases = append(pinSearches[:len(pinSearches):len(pinSearches)],
	struct{ hi, tol float64 }{1, 1e-7},
	struct{ hi, tol float64 }{2, 1e-2},
	struct{ hi, tol float64 }{1e-3, 1e-4})

// requireReferenceSearch runs every search case on m and fails on the
// first bit that differs from referenceSaturationPoint. It returns how
// many searches ran and how many resumed at least once.
func requireReferenceSearch(t *testing.T, label string, m *Model) (searches, resumed int) {
	t.Helper()
	for _, c := range searchCases {
		got, resumes := m.saturationSearch(c.hi, c.tol)
		if want := referenceSaturationPoint(m, c.hi, c.tol); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: SaturationPoint(%g, %g) = %v, reference %v (%d resumes)",
				label, c.hi, c.tol, got, want, resumes)
		}
		searches++
		if resumes > 0 {
			resumed++
		}
	}
	return searches, resumed
}

// TestSaturationSearchMatchesReference holds SaturationPoint to the
// full-check bisection over the pinned corpus and a further seeded table
// of wide, tall and degraded systems under every option setting, built
// cold and through a shared handle. The resume path must be taken.
func TestSaturationSearchMatchesReference(t *testing.T) {
	groups := pinCorpus()
	r := rand.New(rand.NewSource(43))
	extra := pinGroup{name: "extra"}
	for k := 0; k < 120; k++ {
		var s pinSpec
		switch k % 4 {
		case 0:
			s.sys = randomWideSystem(r)
		case 1:
			s.sys, s.deg = randomDegraded(r, randomWideSystem(r))
		case 2:
			s.sys, s.deg = randomDegraded(r, randomSystem(r))
		default:
			// A few damaged clusters: randomDegraded would make each of
			// the 128 its own class.
			s.sys = tallSystem()
			s.deg = intactDegradation(s.sys)
			for j := 0; j < 3; j++ {
				c := r.Intn(len(s.sys.Clusters))
				s.deg.Clusters[c].Nodes = 1 + r.Intn(s.sys.ClusterNodes(c))
				s.deg.Clusters[c].ECNCapacity = 1 + r.Float64()
			}
		}
		s.msg = randomMsg(r)
		s.opt = pinOptions[k/4%len(pinOptions)]
		extra.specs = append(extra.specs, s)
	}
	groups = append(groups, extra)

	var searches, resumed int
	for _, g := range groups {
		pre := NewPrecompute()
		for i := range g.specs {
			for _, h := range []*Precompute{nil, pre} {
				m, err := g.specs[i].build(h)
				if err != nil {
					t.Fatalf("%s spec %d: %v", g.name, i, err)
				}
				n, res := requireReferenceSearch(t, fmt.Sprintf("%s spec %d", g.name, i), m)
				searches += n
				resumed += res
			}
		}
	}
	t.Logf("%d searches equal the reference; %d took the resume path", searches, resumed)
	if resumed == 0 {
		t.Fatal("no search took the resume path")
	}
}

// fuzzBytes decodes a fuzz input; reads past the end yield zero.
type fuzzBytes struct {
	data []byte
	pos  int
}

func (d *fuzzBytes) next() int {
	if d.pos >= len(d.data) {
		return 0
	}
	d.pos++
	return int(d.data[d.pos-1])
}

func (d *fuzzBytes) net() netchar.Characteristics {
	switch d.next() % 3 {
	case 0:
		return netchar.Net1
	case 1:
		return netchar.Net2
	}
	return netchar.Characteristics{
		Bandwidth:      50 + 8*float64(d.next()),
		NetworkLatency: float64(d.next()) / 1000,
		SwitchLatency:  float64(d.next()) / 1000,
	}
}

func (d *fuzzBytes) dist(n int) []float64 {
	p := make([]float64, n)
	sum := 0.0
	for i := range p {
		p[i] = float64(1 + d.next())
		sum += p[i]
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

// decodeSearchCase builds a model and a (hi, tol) pair from fuzz bytes:
// switch arity and ICN2 height (n_c ≤ 3, at most 32 clusters), each
// cluster's tree height (≤ 5) and networks, the options, an optional
// degradation, and the search's ceiling and tolerance.
func decodeSearchCase(data []byte) (m *Model, hi, tol float64, err error) {
	d := &fuzzBytes{data: data}
	ports := 2 * (1 + d.next()%4)
	k := ports / 2
	nc := 1 + d.next()%3
	clusters := 2
	for i := 0; i < nc; i++ {
		clusters *= k
	}
	for clusters > 32 {
		nc--
		clusters /= k
	}
	sys := &cluster.System{Name: "fuzz", Ports: ports, ICN2: d.net()}
	for i := 0; i < clusters; i++ {
		sys.Clusters = append(sys.Clusters, cluster.Config{
			TreeLevels: 1 + d.next()%5, ICN1: d.net(), ECN1: d.net(),
		})
	}
	msg := netchar.MessageSpec{Flits: 1 + d.next()%64, FlitBytes: 16 * (1 + d.next()%32)}
	flags := d.next()
	opt := Options{
		InvertRelaxFactor:      flags&2 != 0,
		CalibratedECNCrossing:  flags&4 != 0,
		GatewayStoreAndForward: flags&8 != 0,
	}
	if flags&1 != 0 {
		opt.Variant = PaperLiteral
	}
	if flags&16 != 0 {
		opt.UseLocality, opt.LocalityFraction = true, float64(d.next())/256
	}
	hi = []float64{1, 0.01, 0.1, math.Ldexp(1, -d.next()%16)}[d.next()%4]
	tol = []float64{1e-4, 1e-5, 1e-3, 1e-7}[d.next()%4]
	if flags&32 == 0 {
		m, err = New(sys, msg, opt)
		return m, hi, tol, err
	}
	deg := &Degradation{ICN2Levels: nc}
	reduced := &cluster.System{Name: "fuzz degraded", Ports: ports, ICN2: sys.ICN2}
	for i, cc := range sys.Clusters {
		b := d.next()
		if b%5 == 0 && i > 0 {
			continue // dropped
		}
		cd := ClusterDegradation{Nodes: 1 + d.next()%sys.ClusterNodes(i)}
		if b&8 != 0 {
			cd.Dist = d.dist(cc.TreeLevels)
		}
		if b&16 != 0 {
			cd.IntraCapacity = 1 + float64(d.next())/64
		}
		if b&32 != 0 {
			cd.ECNCapacity = 1 + float64(d.next())/64
		}
		reduced.Clusters = append(reduced.Clusters, cc)
		deg.Clusters = append(deg.Clusters, cd)
	}
	if flags&64 != 0 {
		deg.ICN2Dist = d.dist(nc)
	}
	if flags&128 != 0 {
		deg.ICN2Capacity = 1 + float64(d.next())/128
	}
	m, err = NewDegraded(reduced, msg, opt, deg)
	return m, hi, tol, err
}

// FuzzSaturationSearchMatchesReference requires SaturationPoint to
// equal referenceSaturationPoint bit for bit on decoded systems.
func FuzzSaturationSearchMatchesReference(f *testing.F) {
	r := rand.New(rand.NewSource(47))
	for i := 0; i < 24; i++ {
		seed := make([]byte, 16+r.Intn(160))
		r.Read(seed)
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, hi, tol, err := decodeSearchCase(data)
		if err != nil {
			return // an invalid system; the model rejects it
		}
		got := m.SaturationPoint(hi, tol)
		if want := referenceSaturationPoint(m, hi, tol); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("SaturationPoint(%g, %g) = %v, reference %v", hi, tol, got, want)
		}
	})
}
