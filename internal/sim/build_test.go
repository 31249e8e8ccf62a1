package sim

import (
	"sort"
	"strings"
	"testing"

	"github.com/ccnet/ccnet/internal/cluster"
	"github.com/ccnet/ccnet/internal/des"
	"github.com/ccnet/ccnet/internal/wormhole"
)

func buildTestFabric(t *testing.T, sys *cluster.System) *fabric {
	t.Helper()
	var k des.Kernel
	e := wormhole.NewEngine(&k)
	f, err := buildFabric(e, sys, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// channelNames maps every channel of f to its diagnostic name.
func channelNames(f *fabric) map[*wormhole.Channel]string {
	names := make(map[*wormhole.Channel]string)
	f.visit(true, func(ch *wormhole.Channel, name string, _ bool) { names[ch] = name })
	return names
}

func TestFabricChannelCounts(t *testing.T) {
	sys := cluster.System544()
	f := buildTestFabric(t, sys)
	if f.totalNodes() != 544 {
		t.Fatalf("total nodes = %d", f.totalNodes())
	}
	for i := range f.clusters {
		cn := &f.clusters[i]
		n := sys.ClusterNodes(i)
		// Each network has 2 node channels per node plus 2 channels per
		// switch link.
		wantNode := 2 * n
		links := cn.icn1.tree.TotalLinks() - n // switch-switch links
		want := wantNode + 2*links
		if got := len(cn.icn1.chans); got != want {
			t.Fatalf("cluster %d ICN1 has %d channels, want %d", i, got, want)
		}
		if got := len(cn.ecn1.chans); got != want {
			t.Fatalf("cluster %d ECN1 has %d channels, want %d", i, got, want)
		}
		roots := cn.ecn1.tree.NumRoots()
		if len(cn.concEntry) != roots || len(cn.dispEntry) != roots {
			t.Fatalf("cluster %d gateway ports: %d/%d, want %d each",
				i, len(cn.concEntry), len(cn.dispEntry), roots)
		}
	}
}

func TestIntraPathShape(t *testing.T) {
	sys := cluster.System544()
	f := buildTestFabric(t, sys)
	names := channelNames(f)
	// Cluster 0 (n=3): path lengths are 2h for h∈1..3.
	tree := f.clusters[0].icn1.tree
	for src := 0; src < tree.Nodes(); src++ {
		for dst := 0; dst < tree.Nodes(); dst++ {
			if src == dst {
				continue
			}
			path := f.intraRoute(0, src, dst).Channels
			if want := tree.DistanceLinks(src, dst); len(path) != want {
				t.Fatalf("intra path %d→%d has %d channels, want %d", src, dst, len(path), want)
			}
			// All channels belong to ICN1(0).
			for _, ch := range path {
				if !strings.HasPrefix(names[ch], "ICN1(0)/") {
					t.Fatalf("intra path uses foreign channel %s", names[ch])
				}
			}
		}
	}
}

func TestInterPathShape(t *testing.T) {
	sys := cluster.System544()
	f := buildTestFabric(t, sys)
	names := channelNames(f)
	nc, _ := sys.ICN2Levels()

	srcCluster, dstCluster := 2, 11 // 16-node → 64-node cluster
	srcLocal, dstLocal := 3, 17
	dstGlobal := f.offsets[dstCluster] + dstLocal
	routes := f.interRoutes(srcCluster, dstCluster, srcLocal, dstLocal, dstGlobal)
	segs := [3][]*wormhole.Channel{routes[0].Channels, routes[1].Channels, routes[2].Channels}

	// Segment 1: n_i links up plus the gateway port.
	ni := sys.Clusters[srcCluster].TreeLevels
	if len(segs[0]) != ni+1 {
		t.Fatalf("segment 1 has %d channels, want %d", len(segs[0]), ni+1)
	}
	if !strings.HasPrefix(names[segs[0][0]], "ECN1(2)/inject") {
		t.Fatalf("segment 1 starts with %s", names[segs[0][0]])
	}
	if !strings.HasPrefix(names[segs[0][len(segs[0])-1]], "CD(2)/conc") {
		t.Fatalf("segment 1 ends with %s", names[segs[0][len(segs[0])-1]])
	}

	// Segment 2: a leaf-to-leaf ICN2 journey (2l links, l ≤ n_c).
	if len(segs[1])%2 != 0 || len(segs[1]) < 2 || len(segs[1]) > 2*nc {
		t.Fatalf("segment 2 has %d channels, want even in [2,%d]", len(segs[1]), 2*nc)
	}
	for _, ch := range segs[1] {
		if !strings.HasPrefix(names[ch], "ICN2/") {
			t.Fatalf("segment 2 uses %s", names[ch])
		}
	}

	// Segment 3: gateway port plus n_j links down.
	nj := sys.Clusters[dstCluster].TreeLevels
	if len(segs[2]) != nj+1 {
		t.Fatalf("segment 3 has %d channels, want %d", len(segs[2]), nj+1)
	}
	if !strings.HasPrefix(names[segs[2][0]], "CD(11)/disp") {
		t.Fatalf("segment 3 starts with %s", names[segs[2][0]])
	}
	last := segs[2][len(segs[2])-1]
	if !strings.HasPrefix(names[last], "ECN1(11)/eject") {
		t.Fatalf("segment 3 ends with %s", names[last])
	}
}

func TestInterPathBalancesGatewayPorts(t *testing.T) {
	// Destination hashing must spread exits/entries across all gateway
	// root ports of multi-root clusters.
	sys := cluster.System544()
	f := buildTestFabric(t, sys)
	names := channelNames(f)
	srcCluster := 11 // 64 nodes, 16 roots
	used := map[string]bool{}
	for dstGlobal := 0; dstGlobal < f.offsets[11]; dstGlobal++ {
		dstCluster := f.clusterOf(dstGlobal)
		up := f.interRoutes(srcCluster, dstCluster, 5, dstGlobal-f.offsets[dstCluster], dstGlobal)[0].Channels
		used[names[up[len(up)-1]]] = true
	}
	roots := f.clusters[srcCluster].ecn1.tree.NumRoots()
	if len(used) != roots {
		t.Fatalf("outbound gateway ports used: %d of %d", len(used), roots)
	}
}

func TestPerPairFIFOOrdering(t *testing.T) {
	// Deterministic routing + FIFO channels: messages of one (src,dst)
	// pair must deliver in generation order. Verified through the
	// delivery hook at a contended rate.
	type gd struct{ gen, del float64 }
	perPair := map[[2]int][]gd{}
	cfg := fastCfg(cluster.SmallTestSystem(), 2e-3)
	cfg.MeasureCount = 6000
	cfg.onDeliver = func(msg *message, deliveredAt float64) {
		key := [2]int{msg.src, msg.dst}
		perPair[key] = append(perPair[key], gd{msg.start[0], deliveredAt})
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	pairsWithTraffic := 0
	for key, list := range perPair {
		if len(list) < 2 {
			continue
		}
		pairsWithTraffic++
		sort.Slice(list, func(a, b int) bool { return list[a].gen < list[b].gen })
		for i := 1; i < len(list); i++ {
			if list[i].del < list[i-1].del {
				t.Fatalf("pair %v reordered: message generated at %v delivered %v, before predecessor's %v",
					key, list[i].gen, list[i].del, list[i-1].del)
			}
		}
	}
	if pairsWithTraffic < 100 {
		t.Fatalf("too few contended pairs: %d", pairsWithTraffic)
	}
}
