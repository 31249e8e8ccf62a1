package sim

import (
	"github.com/ccnet/ccnet/internal/cluster"
	"github.com/ccnet/ccnet/internal/des"
	"github.com/ccnet/ccnet/internal/wormhole"
)

// EachRoute compiles every route a run of sys at flitBytes can take —
// the intra-cluster route of every ordered pair of nodes in one cluster
// and the three segments of every inter-cluster pair — and calls fn once
// per compiled route with its segment ("intra", "up", "icn2" or "down")
// and channels.
func EachRoute(sys *cluster.System, flitBytes int, fn func(segment string, chans []*wormhole.Channel)) error {
	var k des.Kernel
	f, err := buildFabric(wormhole.NewEngine(&k), sys, flitBytes, 1)
	if err != nil {
		return err
	}
	n := f.totalNodes()
	for src := range n {
		for dst := range n {
			sc, dc := f.clusterOf(src), f.clusterOf(dst)
			sl, dl := src-f.offsets[sc], dst-f.offsets[dc]
			switch {
			case src == dst:
			case sc == dc:
				f.intraRoute(sc, sl, dl)
			default:
				f.interRoutes(sc, dc, sl, dl, dst)
			}
		}
	}
	each := func(segment string, routes []*wormhole.Route) {
		for _, r := range routes {
			if r != nil {
				fn(segment, r.Channels)
			}
		}
	}
	for i := range f.clusters {
		cn := &f.clusters[i]
		each("intra", cn.intra)
		each("up", cn.up)
		each("down", cn.down)
	}
	each("icn2", f.icn2Routes)
	return nil
}
