package routing

import (
	"slices"
	"testing"
	"testing/quick"

	"github.com/ccnet/ccnet/internal/topology"
)

// LinkLoads routes every ordered (src,dst) pair in t and counts how many
// routes cross each directed channel. The balance tests run it on small
// trees (O(N²·n) routes).
func LinkLoads(t *topology.Tree) map[ChannelKey]int {
	loads := make(map[ChannelKey]int)
	var path []Hop
	for s := 0; s < t.Nodes(); s++ {
		for d := 0; d < t.Nodes(); d++ {
			if s == d {
				continue
			}
			path = Route(path[:0], t, s, d)
			for _, hop := range path {
				loads[hop.Key()]++
			}
		}
	}
	return loads
}

func mustTree(t *testing.T, m, n int) *topology.Tree {
	t.Helper()
	tree, err := topology.New(m, n)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestRouteLengthMatchesNCA(t *testing.T) {
	for _, s := range []struct{ m, n int }{{8, 1}, {8, 2}, {4, 3}, {4, 4}, {2, 3}, {6, 2}} {
		tree := mustTree(t, s.m, s.n)
		for src := 0; src < tree.Nodes(); src++ {
			for dst := 0; dst < tree.Nodes(); dst++ {
				if src == dst {
					continue
				}
				path := Route(nil, tree, src, dst)
				want := tree.DistanceLinks(src, dst)
				if len(path) != want {
					t.Fatalf("(%d,%d) route %d→%d has %d hops, want %d",
						s.m, s.n, src, dst, len(path), want)
				}
			}
		}
	}
}

func TestAllRoutesValidate(t *testing.T) {
	for _, s := range []struct{ m, n int }{{8, 2}, {4, 3}, {2, 4}} {
		tree := mustTree(t, s.m, s.n)
		for src := 0; src < tree.Nodes(); src++ {
			for dst := 0; dst < tree.Nodes(); dst++ {
				if src == dst {
					continue
				}
				if err := Validate(tree, Route(nil, tree, src, dst)); err != nil {
					t.Fatalf("(%d,%d) %d→%d: %v", s.m, s.n, src, dst, err)
				}
			}
		}
	}
}

func TestRouteEndpoints(t *testing.T) {
	tree := mustTree(t, 4, 3)
	f := func(a, b uint16) bool {
		src := int(a) % tree.Nodes()
		dst := int(b) % tree.Nodes()
		if src == dst {
			return true
		}
		path := Route(nil, tree, src, dst)
		return path[0].Kind == Inject && path[0].From == src &&
			path[len(path)-1].Kind == Eject && path[len(path)-1].To == dst
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestRouteIsDeterministic: every call gives the same hops, also when it
// appends them to a reused slice after a prefix it keeps, and routing
// into a slice with room allocates nothing.
func TestRouteIsDeterministic(t *testing.T) {
	tree := mustTree(t, 8, 2)
	want := Route(nil, tree, 3, 29)
	prefix := Hop{Kind: Eject, From: 7, To: 8}
	buf := []Hop{prefix}
	for trial := 0; trial < 3; trial++ {
		buf = Route(buf[:1], tree, 3, 29)
		if buf[0] != prefix || !slices.Equal(buf[1:], want) {
			t.Fatalf("trial %d: route %v after prefix %v, want %v", trial, buf[1:], buf[0], want)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		buf = Route(buf[:0], tree, 3, 29)
		buf = RouteToRoot(buf[:0], tree, 3, 1)
		buf = RouteFromRoot(buf[:0], tree, 1, 29)
	}); n != 0 {
		t.Errorf("routing into a reused slice allocates %v objects per run", n)
	}
}

func TestRouteToRootReachesEveryRoot(t *testing.T) {
	tree := mustTree(t, 4, 3)
	for src := 0; src < tree.Nodes(); src++ {
		for r := 0; r < tree.NumRoots(); r++ {
			path := RouteToRoot(nil, tree, src, r)
			// n links: inject + (n−1) ascents.
			if len(path) != tree.N {
				t.Fatalf("ascent %d→root%d has %d hops, want %d", src, r, len(path), tree.N)
			}
			last := path[len(path)-1]
			if last.To != tree.Root(r) {
				t.Fatalf("ascent %d→root%d ends at switch %d", src, r, last.To)
			}
			if path[0].Kind != Inject || path[0].From != src {
				t.Fatalf("ascent does not start by injecting from %d", src)
			}
		}
	}
}

func TestRouteFromRootReachesEveryNode(t *testing.T) {
	tree := mustTree(t, 4, 3)
	for r := 0; r < tree.NumRoots(); r++ {
		for dst := 0; dst < tree.Nodes(); dst++ {
			path := RouteFromRoot(nil, tree, r, dst)
			if len(path) != tree.N {
				t.Fatalf("descent root%d→%d has %d hops, want %d", r, dst, len(path), tree.N)
			}
			if path[0].From != tree.Root(r) {
				t.Fatalf("descent starts at %d, want root %d", path[0].From, tree.Root(r))
			}
			last := path[len(path)-1]
			if last.Kind != Eject || last.To != dst {
				t.Fatalf("descent root%d→%d ends with %+v", r, dst, last)
			}
			// Strictly descending: levels must increase.
			for i := 1; i < len(path)-1; i++ {
				if tree.Switch(path[i].To).Level != tree.Switch(path[i].From).Level+1 {
					t.Fatalf("descent hop %d not downward", i)
				}
			}
		}
	}
}

func TestUpDownPhaseOrder(t *testing.T) {
	// Up*/Down* deadlock freedom rests on every route being one ascent
	// followed by one descent; Validate enforces it, exercised here over
	// all pairs of a 3-level tree (also covered per-route above, this one
	// asserts the level profile directly).
	tree := mustTree(t, 4, 3)
	for src := 0; src < tree.Nodes(); src++ {
		for dst := 0; dst < tree.Nodes(); dst++ {
			if src == dst {
				continue
			}
			path := Route(nil, tree, src, dst)
			phase := "up"
			prevLevel := tree.N // node level, below leaves
			for _, hop := range path[:len(path)-1] {
				lvl := tree.Switch(hop.To).Level
				switch {
				case lvl < prevLevel:
					if phase == "down" {
						t.Fatalf("%d→%d ascends after descending", src, dst)
					}
				case lvl > prevLevel:
					phase = "down"
				default:
					t.Fatalf("%d→%d has a level-flat hop", src, dst)
				}
				prevLevel = lvl
			}
		}
	}
}

func TestUplinkLoadBalance(t *testing.T) {
	// Destination-digit parent selection spreads uniform traffic across
	// parallel uplinks. Deterministic routing cannot be perfectly even
	// (the uplink matching a switch's own prefix only carries cross-half
	// traffic), but no uplink may exceed twice the load of another, and
	// every uplink must carry traffic.
	tree := mustTree(t, 8, 2)
	loads := LinkLoads(tree)
	perSwitch := make(map[int][]int)
	for key, load := range loads {
		if key.Kind != SwitchToSwitch {
			continue
		}
		from := tree.Switch(key.From)
		to := tree.Switch(key.To)
		if to.Level == from.Level-1 { // uplink
			perSwitch[key.From] = append(perSwitch[key.From], load)
		}
	}
	if len(perSwitch) == 0 {
		t.Fatal("no uplink loads recorded")
	}
	for sw, ls := range perSwitch {
		lo, hi := ls[0], ls[0]
		for _, l := range ls {
			if l < lo {
				lo = l
			}
			if l > hi {
				hi = l
			}
		}
		if lo == 0 || hi > 2*lo {
			t.Fatalf("switch %d uplink loads too skewed: %v", sw, ls)
		}
	}
}

func TestTotalLinkTraversalsMatchMeanDistance(t *testing.T) {
	// Σ loads over all channels must equal N(N−1)·D where D is Eq 8's mean
	// link count — ties the routing layer to the model's Eq 8.
	tree := mustTree(t, 4, 3)
	loads := LinkLoads(tree)
	total := 0
	for _, l := range loads {
		total += l
	}
	n := tree.Nodes()
	want := float64(n*(n-1)) * tree.MeanDistanceLinks()
	if diff := float64(total) - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("total traversals %d, want %v", total, want)
	}
}

func TestValidateRejectsCorruptPaths(t *testing.T) {
	tree := mustTree(t, 4, 2)
	good := Route(nil, tree, 0, tree.Nodes()-1)

	// Discontinuity.
	bad := make([]Hop, len(good))
	copy(bad, good)
	bad[1].From = bad[1].From + 1
	if err := Validate(tree, bad); err == nil {
		t.Fatal("Validate accepted a discontinuous path")
	}

	// Empty.
	if err := Validate(tree, nil); err == nil {
		t.Fatal("Validate accepted an empty path")
	}

	// Eject in the middle.
	bad2 := append([]Hop{}, good...)
	bad2[0].Kind = Eject
	if err := Validate(tree, bad2); err == nil {
		t.Fatal("Validate accepted eject at position 0")
	}
}

func TestRoutePanicsOnSelfRoute(t *testing.T) {
	tree := mustTree(t, 4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Route(x,x) did not panic")
		}
	}()
	Route(nil, tree, 1, 1)
}
