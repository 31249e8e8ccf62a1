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
// (service t_cs, Eq 12). The channels share one slab and carry the
// network's name; a channel's own name is formatted only for the
// utilization report (channelName).
type network struct {
	name  string
	tree  *topology.Tree
	chans map[routing.ChannelKey]*wormhole.Channel
}

func newNetwork(e *wormhole.Engine, name string, tree *topology.Tree, tcn, tcs float64, depth int) *network {
	count := 2 * tree.Nodes()
	for id := 0; id < tree.NumSwitches(); id++ {
		count += 2 * len(tree.Switch(id).Down)
	}
	slab := make([]wormhole.Channel, 0, count)
	n := &network{name: name, tree: tree, chans: make(map[routing.ChannelKey]*wormhole.Channel, count)}
	add := func(kind routing.HopKind, from, to int, t float64) {
		slab = append(slab, wormhole.Channel{Name: name, FlitTime: t, BufferDepth: depth})
		n.chans[routing.ChannelKey{Kind: kind, From: from, To: to}] = &slab[len(slab)-1]
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
	e.AddChannels(slab)
	return n
}

// channelName is the diagnostic name of n's channel key.
func (n *network) channelName(key routing.ChannelKey) string {
	return fmt.Sprintf("%s/%v:%d->%d", n.name, key.Kind, key.From, key.To)
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

	nodes, roots int // the cluster's node count and ECN1 root count

	// Route tables (see fabric): intra[srcLocal·nodes + dstLocal],
	// up[srcLocal·roots + exitRoot] (ECN1 ascent into the gateway),
	// down[entryRoot·nodes + dstLocal] (out of the gateway, ECN1 descent).
	intra, up, down []*wormhole.Route
}

// fabric is the fully instantiated system.
type fabric struct {
	sys         *cluster.System
	engine      *wormhole.Engine
	clusters    []clusterNets
	icn2        *network
	offsets     []int   // global node id base per cluster
	nodeCluster []int32 // cluster of each global node id

	// Route tables: deterministic routing means every (endpoints) pair
	// always resolves to the same channel sequence, so each path is
	// compiled once, on first use, into a route every message over it
	// shares. The tables are indexed by endpoints, with no hashing; a
	// nil entry is not compiled yet. icn2Routes is indexed
	// srcCluster·C + dstCluster, the cluster tables are in clusterNets.
	icn2Routes []*wormhole.Route
	hops       []routing.Hop       // scratch for the path being routed
	path       []*wormhole.Channel // scratch for the path being compiled
}

func buildFabric(e *wormhole.Engine, sys *cluster.System, flitBytes, bufferDepth int) (*fabric, error) {
	if bufferDepth < 1 {
		return nil, fmt.Errorf("sim: buffer depth %d must be >= 1", bufferDepth)
	}
	nc, err := sys.ICN2Levels()
	if err != nil {
		return nil, err
	}
	C := sys.NumClusters()
	f := &fabric{
		sys:      sys,
		engine:   e,
		offsets:  make([]int, C+1),
		clusters: make([]clusterNets, C),
	}

	icn2Tree, err := topology.New(sys.Ports, nc)
	if err != nil {
		return nil, err
	}
	if icn2Tree.Nodes() != C {
		return nil, fmt.Errorf("sim: ICN2 tree has %d leaf slots for %d clusters", icn2Tree.Nodes(), C)
	}
	tcsI2 := sys.ICN2.SwitchChannelTime(flitBytes)
	f.icn2 = newNetwork(e, "ICN2", icn2Tree, sys.ICN2.NodeChannelTime(flitBytes), tcsI2, bufferDepth)

	tables := C * C // route table entries, one allocation for all
	for i, cc := range sys.Clusters {
		tree, err := topology.New(sys.Ports, cc.TreeLevels)
		if err != nil {
			return nil, err
		}
		cn := &f.clusters[i]
		cn.icn1 = newNetwork(e, fmt.Sprintf("ICN1(%d)", i), tree,
			cc.ICN1.NodeChannelTime(flitBytes), cc.ICN1.SwitchChannelTime(flitBytes), bufferDepth)
		// ECN1 is a second, independent fabric over the same node set
		// (processors reach it directly, Fig 2 of the paper).
		ecn1Tree, err := topology.New(sys.Ports, cc.TreeLevels)
		if err != nil {
			return nil, err
		}
		cn.ecn1 = newNetwork(e, fmt.Sprintf("ECN1(%d)", i), ecn1Tree,
			cc.ECN1.NodeChannelTime(flitBytes), cc.ECN1.SwitchChannelTime(flitBytes), bufferDepth)

		cn.nodes, cn.roots = tree.Nodes(), ecn1Tree.NumRoots()
		gate := make([]wormhole.Channel, 2*cn.roots)
		name := fmt.Sprintf("CD(%d)", i)
		for r := range gate {
			gate[r] = wormhole.Channel{Name: name, FlitTime: tcsI2, BufferDepth: bufferDepth}
		}
		e.AddChannels(gate)
		ports := make([]*wormhole.Channel, 2*cn.roots)
		cn.concEntry, cn.dispEntry = ports[:cn.roots:cn.roots], ports[cn.roots:]
		for r := 0; r < cn.roots; r++ {
			cn.concEntry[r] = &gate[r]
			cn.dispEntry[r] = &gate[cn.roots+r]
		}
		f.offsets[i+1] = f.offsets[i] + cn.nodes
		tables += cn.nodes*cn.nodes + 2*cn.nodes*cn.roots
	}

	f.nodeCluster = nodeClusters(f.offsets)
	routes := make([]*wormhole.Route, tables)
	take := func(n int) []*wormhole.Route {
		t := routes[:n:n]
		routes = routes[n:]
		return t
	}
	f.icn2Routes = take(C * C)
	for i := range f.clusters {
		cn := &f.clusters[i]
		cn.intra = take(cn.nodes * cn.nodes)
		cn.up = take(cn.nodes * cn.roots)
		cn.down = take(cn.roots * cn.nodes)
	}
	return f, nil
}

// nodeClusters maps every global node id to its cluster, given each
// cluster's first id (offsets, which end with the node count).
func nodeClusters(offsets []int) []int32 {
	out := make([]int32, offsets[len(offsets)-1])
	for c := 0; c+1 < len(offsets); c++ {
		for v := offsets[c]; v < offsets[c+1]; v++ {
			out[v] = int32(c)
		}
	}
	return out
}

// totalNodes returns the global node count.
func (f *fabric) totalNodes() int { return f.offsets[len(f.offsets)-1] }

// clusterOf locates the cluster of a global node id.
func (f *fabric) clusterOf(node int) int { return int(f.nodeCluster[node]) }

// compile resolves a routed path in network n to its channels, with
// first (if non-nil) ahead of them and last (if non-nil) after them, and
// compiles the sequence into a route.
func (f *fabric) compile(n *network, path []routing.Hop, first, last *wormhole.Channel) *wormhole.Route {
	p := f.path[:0]
	if first != nil {
		p = append(p, first)
	}
	for _, hop := range path {
		ch, ok := n.chans[hop.Key()]
		if !ok {
			panic(fmt.Sprintf("sim: no channel for hop %+v", hop))
		}
		p = append(p, ch)
	}
	if last != nil {
		p = append(p, last)
	}
	f.path = p
	return f.engine.NewRoute(p)
}

// intraRoute compiles (or recalls) the single-segment route of a message
// that stays inside cluster c.
func (f *fabric) intraRoute(c, srcLocal, dstLocal int) *wormhole.Route {
	cn := &f.clusters[c]
	r := &cn.intra[srcLocal*cn.nodes+dstLocal]
	if *r == nil {
		f.hops = routing.Route(f.hops[:0], cn.icn1.tree, srcLocal, dstLocal)
		*r = f.compile(cn.icn1, f.hops, nil, nil)
	}
	return *r
}

// interRoutes compiles (or recalls) the three chained segments of an
// inter-cluster message: ECN1(i) ascent to the gateway, the ICN2
// leaf-to-leaf journey, and the ECN1(j) descent from the gateway to the
// destination. Gateways store-and-forward whole messages between
// segments, which decouples the wormhole dependency chains of the three
// networks (deadlock freedom) and is what the model's C/D M/G/1 queues
// stand for.
func (f *fabric) interRoutes(srcCluster, dstCluster, srcLocal, dstLocal, dstGlobal int) [3]*wormhole.Route {
	src := &f.clusters[srcCluster]
	dst := &f.clusters[dstCluster]

	// Segment 1: ascend ECN1(i) to the exit root chosen by destination
	// hash (balances gateway ports), then cross into the gateway.
	exitRoot := dstGlobal % src.roots
	up := &src.up[srcLocal*src.roots+exitRoot]
	if *up == nil {
		f.hops = routing.RouteToRoot(f.hops[:0], src.ecn1.tree, srcLocal, exitRoot)
		*up = f.compile(src.ecn1, f.hops, nil, src.concEntry[exitRoot])
	}

	// Segment 2: ICN2 treats gateways as its leaves.
	mid := &f.icn2Routes[srcCluster*len(f.clusters)+dstCluster]
	if *mid == nil {
		f.hops = routing.Route(f.hops[:0], f.icn2.tree, srcCluster, dstCluster)
		*mid = f.compile(f.icn2, f.hops, nil, nil)
	}

	// Segment 3: leave the gateway through the destination-hashed root of
	// ECN1(j) and descend.
	entryRoot := dstGlobal % dst.roots
	down := &dst.down[entryRoot*dst.nodes+dstLocal]
	if *down == nil {
		f.hops = routing.RouteFromRoot(f.hops[:0], dst.ecn1.tree, entryRoot, dstLocal)
		*down = f.compile(dst.ecn1, f.hops, dst.dispEntry[entryRoot], nil)
	}

	return [3]*wormhole.Route{*up, *mid, *down}
}

// visit calls fn for every channel of the fabric, with whether it is a
// gateway's ICN2 injection channel and, when named is set, its
// diagnostic name ("" otherwise).
func (f *fabric) visit(named bool, fn func(ch *wormhole.Channel, name string, gateway bool)) {
	each := func(n *network) {
		for key, ch := range n.chans {
			name := ""
			if named {
				name = n.channelName(key)
			}
			fn(ch, name, n == f.icn2 && key.Kind == routing.Inject)
		}
	}
	gate := func(chans []*wormhole.Channel, kind string) {
		for r, ch := range chans {
			name := ""
			if named {
				name = fmt.Sprintf("%s/%s-root%d", ch.Name, kind, r)
			}
			fn(ch, name, false)
		}
	}
	for i := range f.clusters {
		cn := &f.clusters[i]
		each(cn.icn1)
		each(cn.ecn1)
		gate(cn.concEntry, "conc")
		gate(cn.dispEntry, "disp")
	}
	each(f.icn2)
}
