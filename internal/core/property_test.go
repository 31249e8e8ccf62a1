package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/ccnet/ccnet/internal/cluster"
	"github.com/ccnet/ccnet/internal/netchar"
)

// randomNet draws a network class: one of the Table 2 presets or a
// random-but-valid custom class.
func randomNet(r *rand.Rand) netchar.Characteristics {
	switch r.Intn(3) {
	case 0:
		return netchar.Net1
	case 1:
		return netchar.Net2
	default:
		return netchar.Characteristics{
			Bandwidth:      50 + r.Float64()*1950,
			NetworkLatency: r.Float64() * 0.2,
			SwitchLatency:  r.Float64() * 0.2,
		}
	}
}

// randomSystem draws a random valid heterogeneous system: random switch
// arity, random ICN2 height (which fixes the cluster count via
// C = 2(m/2)^nc), and per-cluster random tree heights and network
// classes. Every system it returns passes cluster.Validate.
func randomSystem(r *rand.Rand) *cluster.System {
	ports := []int{4, 8}[r.Intn(2)]
	k := ports / 2
	nc := 1
	if ports == 4 && r.Intn(2) == 0 {
		nc = 2 // C = 8 stays cheap; m=8 nc=2 would mean 32 clusters
	}
	c := 2
	for i := 0; i < nc; i++ {
		c *= k
	}
	maxLevels := 3
	if ports == 8 {
		maxLevels = 2
	}
	sys := &cluster.System{Name: "random", Ports: ports, ICN2: randomNet(r)}
	for i := 0; i < c; i++ {
		sys.Clusters = append(sys.Clusters, cluster.Config{
			TreeLevels: 1 + r.Intn(maxLevels),
			ICN1:       randomNet(r),
			ECN1:       randomNet(r),
		})
	}
	return sys
}

// randomMsg draws a message geometry from the paper's ranges.
func randomMsg(r *rand.Rand) netchar.MessageSpec {
	return netchar.MessageSpec{
		Flits:     []int{16, 32, 64}[r.Intn(3)],
		FlitBytes: []int{64, 128, 256, 512}[r.Intn(4)],
	}
}

func mustRandomModel(t *testing.T, r *rand.Rand, opt Options) *Model {
	t.Helper()
	sys := randomSystem(r)
	if err := sys.Validate(); err != nil {
		t.Fatalf("random system invalid: %v", err)
	}
	m, err := New(sys, randomMsg(r), opt)
	if err != nil {
		t.Fatalf("model build failed: %v", err)
	}
	return m
}

// TestPropertyLatencyMonotoneInLambda: on random valid systems the mean
// latency must be nondecreasing in λ over the stable region — the
// queueing terms only grow with load.
func TestPropertyLatencyMonotoneInLambda(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		m := mustRandomModel(t, r, Options{GatewayStoreAndForward: trial%2 == 0})
		sat := m.SaturationPoint(1.0, 1e-4)
		if sat <= 0 {
			t.Fatalf("trial %d: system saturated at any positive rate", trial)
		}
		grid := LambdaGrid(sat/64, sat*0.98, 24)
		prev := 0.0
		for _, l := range grid {
			res := m.Evaluate(l)
			if res.Saturated {
				continue // bisection tolerance can leave the last points unstable
			}
			if res.MeanLatency < prev*(1-1e-9) {
				t.Fatalf("trial %d: latency decreases at λ=%g: %g after %g",
					trial, l, res.MeanLatency, prev)
			}
			prev = res.MeanLatency
		}
	}
}

// TestPropertyPaperLiteralSaturatesNoLater: the paper-literal variant
// feeds the source queues network-aggregate rates, so it can never stay
// stable past the reconstructed reading.
func TestPropertyPaperLiteralSaturatesNoLater(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		sys := randomSystem(r)
		msg := randomMsg(r)
		rec, err := New(sys, msg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		lit, err := New(sys, msg, Options{Variant: PaperLiteral})
		if err != nil {
			t.Fatal(err)
		}
		satRec := rec.SaturationPoint(1.0, 1e-5)
		satLit := lit.SaturationPoint(1.0, 1e-5)
		if satLit > satRec*(1+1e-3) {
			t.Fatalf("trial %d: paper-literal saturates at %g, after reconstructed at %g",
				trial, satLit, satRec)
		}
	}
}

// TestPropertySweepParallelMatchesSweep: for random systems, grids
// spanning saturation and random worker counts, the parallel sweep must
// be bit-identical to the serial one.
func TestPropertySweepParallelMatchesSweep(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 15; trial++ {
		m := mustRandomModel(t, r, Options{})
		sat := m.SaturationPoint(1.0, 1e-4)
		if sat <= 0 {
			t.Fatalf("trial %d: no stable rate", trial)
		}
		points := 5 + r.Intn(40)
		grid := LambdaGrid(sat/32, sat*1.5, points) // spans stable and saturated
		workers := 1 + r.Intn(12)
		serial := m.Sweep(grid)
		parallel := m.SweepParallel(grid, workers)
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("trial %d: SweepParallel(workers=%d) differs from Sweep over %d points",
				trial, workers, points)
		}
	}
}

// TestPropertySaturationPointBracketsGrid: the bisection result must
// bracket the stability boundary seen on any grid — every grid point
// meaningfully below it is stable, every point meaningfully above is
// saturated.
func TestPropertySaturationPointBracketsGrid(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	const tol = 1e-4
	for trial := 0; trial < 20; trial++ {
		m := mustRandomModel(t, r, Options{})
		sat := m.SaturationPoint(1.0, tol)
		if sat <= 0 {
			t.Fatalf("trial %d: no stable rate", trial)
		}
		if sat >= 1.0 {
			continue // never saturates below the search ceiling; nothing to bracket
		}
		// The returned rate itself was evaluated stable by the bisection.
		if m.Evaluate(sat).Saturated {
			t.Fatalf("trial %d: Evaluate(SaturationPoint()=%g) saturated", trial, sat)
		}
		// Just past the bisection tolerance the system must be saturated.
		if !m.Evaluate(sat * (1 + 3*tol)).Saturated {
			t.Fatalf("trial %d: still stable just past the saturation point %g", trial, sat)
		}
		grid := LambdaGrid(sat/16, sat*2, 33)
		lastFinite, firstSat := 0.0, math.Inf(1)
		for _, l := range grid {
			if m.Evaluate(l).Saturated {
				if l < firstSat {
					firstSat = l
				}
			} else if l > lastFinite {
				lastFinite = l
			}
		}
		if lastFinite > sat*(1+3*tol) {
			t.Fatalf("trial %d: stable grid point %g above saturation point %g", trial, lastFinite, sat)
		}
		if firstSat < sat*(1-3*tol) {
			t.Fatalf("trial %d: saturated grid point %g below saturation point %g", trial, firstSat, sat)
		}
	}
}

// TestPropertyStageChainSpecializations anchors the hot-path
// specializations on the generic recursion they replaced: for random
// shapes the uniform and three-segment chains must reproduce the
// closure-driven stageChain exactly.
func TestPropertyStageChainSpecializations(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for trial := 0; trial < 500; trial++ {
		flits := float64(1 + r.Intn(64))
		last := r.Float64() * 2
		svcA, svcB, svcC := r.Float64(), r.Float64(), r.Float64()
		etaA, etaB, etaC := r.Float64()*1e-2, r.Float64()*1e-2, r.Float64()*1e-2

		// Uniform chain, k >= 2.
		k := 2 + r.Intn(12)
		want := stageChain(k, flits, last,
			func(int) float64 { return svcA },
			func(int) float64 { return etaA })
		if got := stageChainUniform(k, flits, last, svcA, etaA); got != want {
			t.Fatalf("uniform: got %g, want %g", got, want)
		}

		// Three-segment chain with the inter-cluster shape: lo >= 1,
		// hi > lo, k > hi (k = lo + 2l + v - 1 with l, v >= 1).
		lo := 1 + r.Intn(4)
		l := 1 + r.Intn(3)
		v := 1 + r.Intn(4)
		hi := lo + 2*l - 1
		k = lo + 2*l + v - 1
		want = stageChain(k, flits, last,
			func(s int) float64 {
				switch {
				case s < lo:
					return svcA
				case s < hi:
					return svcB
				default:
					return svcC
				}
			},
			func(s int) float64 {
				switch {
				case s < lo:
					return etaA
				case s < hi:
					return etaB
				default:
					return etaC
				}
			})
		if got := stageChain3(k, lo, hi, flits, last, svcA, svcB, svcC, etaA, etaB, etaC); got != want {
			t.Fatalf("three-segment (k=%d lo=%d hi=%d): got %g, want %g", k, lo, hi, got, want)
		}
	}
}

// randomWideSystem draws a random m=4, n_c=3 system (16 clusters) whose
// trees reach 5 levels, so an ordered class pair has up to 5·5·3 = 75
// crossing-length cells; randomSystem stays at or under 18.
func randomWideSystem(r *rand.Rand) *cluster.System {
	sys := &cluster.System{Name: "random wide", Ports: 4, ICN2: randomNet(r)}
	for i := 0; i < 16; i++ {
		sys.Clusters = append(sys.Clusters, cluster.Config{
			TreeLevels: 1 + r.Intn(5),
			ICN1:       randomNet(r),
			ECN1:       randomNet(r),
		})
	}
	return sys
}

// tallSystem is an m=4, n_c=6 system (128 clusters of 5 and 6 tree
// levels): its 6·6·6 = 216-cell pair classes overflow crossingLatency's
// stack buffer.
func tallSystem() *cluster.System {
	sys := &cluster.System{Name: "tall", Ports: 4, ICN2: netchar.Net1}
	for i := 0; i < 128; i++ {
		sys.Clusters = append(sys.Clusters, cluster.Config{
			TreeLevels: 5 + i%2,
			ICN1:       netchar.Net1,
			ECN1:       netchar.Net2,
		})
	}
	return sys
}

// TestPropertyWideCellsMatchStageChain3 covers pair classes far past
// randomSystem's 18 cells — N=544, random n_c=3 systems with up to 5
// tree levels, and tallSystem — with calibrated ECN crossings on and
// off: every cell's shared-prefix latency must equal its standalone
// stageChain3 bit for bit, and the Saturated probe must agree with
// Evaluate, at rates on both sides of the saturation point.
func TestPropertyWideCellsMatchStageChain3(t *testing.T) {
	rnd := rand.New(rand.NewSource(31))
	maxCells := 0
	for _, calibrated := range []bool{false, true} {
		systems := []*cluster.System{cluster.System544(), tallSystem()}
		for i := 0; i < 6; i++ {
			systems = append(systems, randomWideSystem(rnd))
		}
		for si, sys := range systems {
			m, err := New(sys, randomMsg(rnd), Options{CalibratedECNCrossing: calibrated})
			if err != nil {
				t.Fatal(err)
			}
			M := float64(m.Msg.Flits)
			sat := m.SaturationPoint(1.0, 1e-4)
			for _, frac := range [...]float64{0.3, 0.9, 0.999, 1.001, 1.5} {
				lam := sat * frac
				for cp := range m.pairs {
					pc := &m.pairs[cp]
					if pc.cells == nil {
						continue
					}
					maxCells = max(maxCells, len(pc.cells))
					etaSrc, etaI2, etaDst := lam*pc.etaSrcCof, lam*pc.etaI2Cof, lam*pc.etaDstCof
					ts := make([]float64, len(pc.cells))
					m.cellLatencies(pc, etaSrc, etaI2, etaDst, ts)
					for i := range pc.cells {
						// Cell i is (r, v, l) in lexicographic order. Its
						// chain has K = r+2l+v−1 stages with the ICN2 on
						// [r, r+2l−1), r and v counted in links.
						r, v, l := i/(pc.nv*m.nc)+1, i/m.nc%pc.nv+1, i%m.nc+1
						if calibrated {
							r, v = 2*r, 2*v
						}
						want := stageChain3(r+2*l+v-1, r, r+2*l-1, M, pc.tcnE1Dst,
							pc.tcsE1Src, m.tcsI2, pc.tcsE1Dst, etaSrc, etaI2, etaDst)
						if math.Float64bits(ts[i]) != math.Float64bits(want) {
							t.Fatalf("%s (calibrated %v) pair %d cell %d at λ=%g: %g, stageChain3 %g",
								sys.Name, calibrated, cp, i, lam, ts[i], want)
						}
					}
				}
				if got, want := m.Saturated(lam), m.Evaluate(lam).Saturated; got != want {
					t.Fatalf("system %d (calibrated %v): Saturated(%g) = %v, Evaluate = %v",
						si, calibrated, lam, got, want)
				}
			}
		}
	}
	if maxCells <= cellBufLen {
		t.Fatalf("largest pair class has %d cells; the stack-buffer overflow is untested", maxCells)
	}
}

// TestHotPathAllocations pins the allocation counts the benchmark gate
// relies on: one Evaluate costs 4 allocations on both paper systems
// however many cells its pair classes have, the saturation probe and
// bisection allocate nothing, and a degraded rebuild through a warm
// handle costs 5 (the model, its cluster table, its class tables, a
// class member count and its pair table; the pair cells come from the
// handle).
func TestHotPathAllocations(t *testing.T) {
	msg := netchar.MessageSpec{Flits: 32, FlitBytes: 256}
	for _, sys := range []*cluster.System{cluster.System1120(), cluster.System544()} {
		m, err := New(sys, msg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		deg := intactDegradation(sys)
		deg.Clusters[0].Nodes--
		deg.Clusters[3].ECNCapacity = 1.5
		deg.ICN2Capacity = 1.25
		pre := NewPrecompute()
		if _, err := NewDegradedWith(sys, msg, Options{}, deg, pre); err != nil {
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(20, func() { NewDegradedWith(sys, msg, Options{}, deg, pre) }); a != 5 {
			t.Errorf("%s: degraded rebuild through a warm handle allocates %v, want 5", sys.Name, a)
		}
		dm, err := NewDegradedWith(sys, msg, Options{}, deg, pre)
		if err != nil {
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(5, func() { dm.SaturationPoint(1, 1e-4) }); a != 0 {
			t.Errorf("%s: degraded SaturationPoint allocates %v per call, want 0", sys.Name, a)
		}
		if a := testing.AllocsPerRun(20, func() { m.Evaluate(1e-4) }); a != 4 {
			t.Errorf("%s: Evaluate allocates %v per call, want 4", sys.Name, a)
		}
		if a := testing.AllocsPerRun(20, func() { m.Saturated(1e-4) }); a != 0 {
			t.Errorf("%s: Saturated allocates %v per call, want 0", sys.Name, a)
		}
		if a := testing.AllocsPerRun(5, func() { m.SaturationPoint(1, 1e-4) }); a != 0 {
			t.Errorf("%s: SaturationPoint allocates %v per call, want 0", sys.Name, a)
		}
	}
}
