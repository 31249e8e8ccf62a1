package sim

import (
	"fmt"

	"github.com/ccnet/ccnet/internal/cluster"
	"github.com/ccnet/ccnet/internal/routing"
	"github.com/ccnet/ccnet/internal/topology"
	"github.com/ccnet/ccnet/internal/wormhole"
)

// network instantiates one m-port n-tree as wormhole channels: a
// node→switch injection and switch→node ejection channel per node
// (service t_cn, Eq 11) and a pair of directed channels per switch link
// (service t_cs, Eq 12).
type network struct {
	tree  *topology.Tree
	chans map[routing.ChannelKey]*wormhole.Channel
}

func newNetwork(e *wormhole.Engine, name string, tree *topology.Tree, tcn, tcs float64, depth int) *network {
	n := &network{tree: tree, chans: make(map[routing.ChannelKey]*wormhole.Channel)}
	add := func(kind routing.HopKind, from, to int, t float64) {
		key := routing.ChannelKey{Kind: kind, From: from, To: to}
		n.chans[key] = e.NewBufferedChannel(fmt.Sprintf("%s/%v:%d->%d", name, kind, from, to), t, depth)
	}
	for id := 0; id < tree.NumSwitches(); id++ {
		sw := tree.Switch(id)
		for _, child := range sw.Down {
			add(routing.SwitchToSwitch, id, child, tcs)
			add(routing.SwitchToSwitch, child, id, tcs)
		}
	}
	for v := 0; v < tree.Nodes(); v++ {
		ls := tree.LeafSwitchOf(v)
		add(routing.Inject, v, ls, tcn)
		add(routing.Eject, ls, v, tcn)
	}
	return n
}

// channels resolves a routed path to its channel sequence.
func (n *network) channels(path []routing.Hop) []*wormhole.Channel {
	out := make([]*wormhole.Channel, len(path))
	for i, hop := range path {
		ch, ok := n.chans[hop.Key()]
		if !ok {
			panic(fmt.Sprintf("sim: no channel for hop %+v", hop))
		}
		out[i] = ch
	}
	return out
}

// clusterNets bundles one cluster's fabric: its two trees plus the
// gateway (concentrator/dispatcher) port channels. The gateway complex
// attaches one port to every ECN1 root switch on the cluster side and
// occupies leaf slot i of ICN2; its ports are provisioned
// at the ICN2 link class, matching the model's C/D service time
// M·t_cs^{I2} (Eqs 36–37).
type clusterNets struct {
	icn1 *network
	ecn1 *network

	// concEntry[r]: ECN1 root r → gateway (outbound absorption).
	concEntry []*wormhole.Channel
	// dispEntry[r]: gateway → ECN1 root r (inbound release).
	dispEntry []*wormhole.Channel
}

// fabric is the fully instantiated system.
type fabric struct {
	sys      *cluster.System
	clusters []clusterNets
	icn2     *network
	offsets  []int // global node id base per cluster

	// Route memos: deterministic routing means every (endpoints) pair
	// always resolves to the same channel sequence, so paths are built
	// once and shared read-only across messages. Keys are (cluster,
	// from, to) with the meaning depending on the segment kind.
	intraCache map[pathKey][]*wormhole.Channel // {cluster, srcLocal, dstLocal}
	seg1Cache  map[pathKey][]*wormhole.Channel // {cluster, srcLocal, exitRoot}
	icn2Cache  map[pathKey][]*wormhole.Channel // {0, srcCluster, dstCluster}
	seg3Cache  map[pathKey][]*wormhole.Channel // {cluster, entryRoot, dstLocal}
}

type pathKey struct{ c, a, b int }

func buildFabric(e *wormhole.Engine, sys *cluster.System, flitBytes, bufferDepth int) (*fabric, error) {
	if bufferDepth < 1 {
		return nil, fmt.Errorf("sim: buffer depth %d must be >= 1", bufferDepth)
	}
	nc, err := sys.ICN2Levels()
	if err != nil {
		return nil, err
	}
	f := &fabric{
		sys:        sys,
		offsets:    make([]int, sys.NumClusters()+1),
		intraCache: make(map[pathKey][]*wormhole.Channel),
		seg1Cache:  make(map[pathKey][]*wormhole.Channel),
		icn2Cache:  make(map[pathKey][]*wormhole.Channel),
		seg3Cache:  make(map[pathKey][]*wormhole.Channel),
	}

	icn2Tree, err := topology.New(sys.Ports, nc)
	if err != nil {
		return nil, err
	}
	if icn2Tree.Nodes() != sys.NumClusters() {
		return nil, fmt.Errorf("sim: ICN2 tree has %d leaf slots for %d clusters", icn2Tree.Nodes(), sys.NumClusters())
	}
	tcsI2 := sys.ICN2.SwitchChannelTime(flitBytes)
	f.icn2 = newNetwork(e, "ICN2", icn2Tree, sys.ICN2.NodeChannelTime(flitBytes), tcsI2, bufferDepth)

	for i, cc := range sys.Clusters {
		tree, err := topology.New(sys.Ports, cc.TreeLevels)
		if err != nil {
			return nil, err
		}
		cn := clusterNets{
			icn1: newNetwork(e, fmt.Sprintf("ICN1(%d)", i), tree,
				cc.ICN1.NodeChannelTime(flitBytes), cc.ICN1.SwitchChannelTime(flitBytes), bufferDepth),
		}
		// ECN1 is a second, independent fabric over the same node set
		// (processors reach it directly, Fig 2 of the paper).
		ecn1Tree, err := topology.New(sys.Ports, cc.TreeLevels)
		if err != nil {
			return nil, err
		}
		cn.ecn1 = newNetwork(e, fmt.Sprintf("ECN1(%d)", i), ecn1Tree,
			cc.ECN1.NodeChannelTime(flitBytes), cc.ECN1.SwitchChannelTime(flitBytes), bufferDepth)

		roots := ecn1Tree.NumRoots()
		cn.concEntry = make([]*wormhole.Channel, roots)
		cn.dispEntry = make([]*wormhole.Channel, roots)
		for r := 0; r < roots; r++ {
			cn.concEntry[r] = e.NewBufferedChannel(fmt.Sprintf("CD(%d)/conc-root%d", i, r), tcsI2, bufferDepth)
			cn.dispEntry[r] = e.NewBufferedChannel(fmt.Sprintf("CD(%d)/disp-root%d", i, r), tcsI2, bufferDepth)
		}
		f.clusters = append(f.clusters, cn)
		f.offsets[i+1] = f.offsets[i] + tree.Nodes()
	}
	return f, nil
}

// totalNodes returns the global node count.
func (f *fabric) totalNodes() int { return f.offsets[len(f.offsets)-1] }

// clusterOf locates the cluster of a global node id.
func (f *fabric) clusterOf(node int) int {
	lo, hi := 0, len(f.offsets)-1
	for lo < hi-1 {
		mid := (lo + hi) / 2
		if node < f.offsets[mid] {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo
}

// intraPath builds (or recalls) the single-segment channel sequence for
// a message that stays inside cluster c.
func (f *fabric) intraPath(c, srcLocal, dstLocal int) []*wormhole.Channel {
	key := pathKey{c, srcLocal, dstLocal}
	if p, ok := f.intraCache[key]; ok {
		return p
	}
	cn := &f.clusters[c]
	p := cn.icn1.channels(routing.Route(cn.icn1.tree, srcLocal, dstLocal))
	f.intraCache[key] = p
	return p
}

// interPath builds the three chained segments of an inter-cluster
// message: ECN1(i) ascent to the gateway, the ICN2 leaf-to-leaf journey,
// and the ECN1(j) descent from the gateway to the destination. Gateways
// store-and-forward whole messages between segments, which decouples the
// wormhole dependency chains of the three networks (deadlock freedom) and
// is what the model's C/D M/G/1 queues stand for.
func (f *fabric) interPath(srcCluster, dstCluster, srcLocal, dstLocal, dstGlobal int) [3][]*wormhole.Channel {
	srcNets := &f.clusters[srcCluster]
	dstNets := &f.clusters[dstCluster]

	// Segment 1: ascend ECN1(i) to the exit root chosen by destination
	// hash (balances gateway ports), then cross into the gateway.
	exitRoot := dstGlobal % srcNets.ecn1.tree.NumRoots()
	k1 := pathKey{srcCluster, srcLocal, exitRoot}
	seg1, ok := f.seg1Cache[k1]
	if !ok {
		up := routing.RouteToRoot(srcNets.ecn1.tree, srcLocal, exitRoot)
		seg1 = append(srcNets.ecn1.channels(up), srcNets.concEntry[exitRoot])
		f.seg1Cache[k1] = seg1
	}

	// Segment 2: ICN2 treats gateways as its leaves.
	k2 := pathKey{0, srcCluster, dstCluster}
	seg2, ok := f.icn2Cache[k2]
	if !ok {
		seg2 = f.icn2.channels(routing.Route(f.icn2.tree, srcCluster, dstCluster))
		f.icn2Cache[k2] = seg2
	}

	// Segment 3: leave the gateway through the destination-hashed root of
	// ECN1(j) and descend.
	entryRoot := dstGlobal % dstNets.ecn1.tree.NumRoots()
	k3 := pathKey{dstCluster, entryRoot, dstLocal}
	seg3, ok := f.seg3Cache[k3]
	if !ok {
		down := routing.RouteFromRoot(dstNets.ecn1.tree, entryRoot, dstLocal)
		seg3 = append([]*wormhole.Channel{dstNets.dispEntry[entryRoot]}, dstNets.ecn1.channels(down)...)
		f.seg3Cache[k3] = seg3
	}

	return [3][]*wormhole.Channel{seg1, seg2, seg3}
}
