// Package routing implements the deterministic Up*/Down* routing the paper
// adopts (refs [19], [20]): every message first ascends from its source to
// a nearest common ancestor of source and destination, then descends along
// the unique downward path.
//
// The ascent is deterministic (destination-digit parent selection, the
// d-mod-k scheme used by fat-tree interconnects), so each (src,dst) pair
// always uses the same path — matching the paper's assumption of
// deterministic routing — while spreading distinct destinations across the
// redundant upward links.
package routing

import (
	"fmt"

	"github.com/ccnet/ccnet/internal/topology"
)

// HopKind distinguishes the three connection types of the paper (node to
// switch, switch to switch, switch to node), which carry different service
// times (Eqs 11–12).
type HopKind int

const (
	// Inject is the node→switch link at the source.
	Inject HopKind = iota
	// SwitchToSwitch is an internal switch→switch link.
	SwitchToSwitch
	// Eject is the switch→node link at the destination.
	Eject
)

func (k HopKind) String() string {
	switch k {
	case Inject:
		return "inject"
	case SwitchToSwitch:
		return "s2s"
	case Eject:
		return "eject"
	}
	return fmt.Sprintf("HopKind(%d)", int(k))
}

// Hop is one directed link traversal. For Inject, From is a node id and To
// a switch id; for Eject the reverse; for SwitchToSwitch both are switch
// ids.
type Hop struct {
	Kind     HopKind
	From, To int
}

// Route appends the Up*/Down* path from src to dst in t to path, as an
// ordered hop list, and returns the extended slice. The path crosses
// exactly 2h links where h = t.NCAHeight(src,dst). A caller routing many
// pairs passes one slice back in, truncated, and allocates nothing once
// it has grown.
func Route(path []Hop, t *topology.Tree, src, dst int) []Hop {
	if src == dst {
		panic("routing: route from a node to itself")
	}
	cur := t.LeafSwitchOf(src)
	path = append(path, Hop{Kind: Inject, From: src, To: cur})

	// Ascend until the current switch covers the destination. Going up
	// from level l frees the switch label digit at index l−1; selecting
	// that digit by the destination's digits in *reversed* order (low-
	// order digits choose high-level switches, the d-mod-k discipline)
	// spreads destinations that share a descent subtree across all of its
	// roots — picking the same digit the descent later consumes would
	// instead funnel every message bound for one subtree through a single
	// root switch.
	for !t.Covers(cur, dst) {
		sw := t.Switch(cur)
		up := sw.Up[t.NodeDigit(dst, t.N-sw.Level)]
		path = append(path, Hop{Kind: SwitchToSwitch, From: cur, To: up})
		cur = up
	}
	return descend(path, t, cur, dst)
}

// RouteToRoot appends the purely ascending path from src to the root
// switch with index rootIdx (no eject hop; the path ends at the root) to
// path and returns the extended slice. Gateways
// (concentrator/dispatchers) hang off roots in the simulator.
func RouteToRoot(path []Hop, t *topology.Tree, src, rootIdx int) []Hop {
	rootID := t.Root(rootIdx)
	cur := t.LeafSwitchOf(src)
	path = append(path, Hop{Kind: Inject, From: src, To: cur})
	rootLabel := t.Switch(rootID).Label
	for t.Switch(cur).Level > 0 {
		sw := t.Switch(cur)
		up := sw.Up[rootLabel[sw.Level-1]]
		path = append(path, Hop{Kind: SwitchToSwitch, From: cur, To: up})
		cur = up
	}
	if cur != rootID {
		panic(fmt.Sprintf("routing: ascent from %d reached root %d, want %d", src, cur, rootID))
	}
	return path
}

// RouteFromRoot appends the purely descending path from the root switch
// with index rootIdx down to dst (starts at the root, ends with the eject
// hop) to path and returns the extended slice.
func RouteFromRoot(path []Hop, t *topology.Tree, rootIdx, dst int) []Hop {
	return descend(path, t, t.Root(rootIdx), dst)
}

// descend appends the unique downward path from switch cur (which must
// cover dst) to dst.
func descend(path []Hop, t *topology.Tree, cur, dst int) []Hop {
	if !t.Covers(cur, dst) {
		panic(fmt.Sprintf("routing: switch %d does not cover node %d", cur, dst))
	}
	for {
		sw := t.Switch(cur)
		if sw.Level == t.N-1 {
			path = append(path, Hop{Kind: Eject, From: cur, To: dst})
			return path
		}
		var next int
		if sw.Level == 0 {
			next = sw.Down[t.NodeHalf(dst)*t.K+t.NodeDigit(dst, 0)]
		} else {
			next = sw.Down[t.NodeDigit(dst, sw.Level)]
		}
		path = append(path, Hop{Kind: SwitchToSwitch, From: cur, To: next})
		cur = next
	}
}

// Validate checks that a path is a structurally valid Up*/Down* route in
// t: hops are adjacent, the path ascends strictly before it descends, and
// endpoints match the claimed kinds.
func Validate(t *topology.Tree, path []Hop) error {
	if len(path) == 0 {
		return fmt.Errorf("routing: empty path")
	}
	descending := false
	for i, hop := range path {
		switch hop.Kind {
		case Inject:
			if i != 0 {
				return fmt.Errorf("routing: inject hop at position %d", i)
			}
			if t.LeafSwitchOf(hop.From) != hop.To {
				return fmt.Errorf("routing: inject to non-adjacent switch %d", hop.To)
			}
		case Eject:
			if i != len(path)-1 {
				return fmt.Errorf("routing: eject hop at position %d", i)
			}
			if t.LeafSwitchOf(hop.To) != hop.From {
				return fmt.Errorf("routing: eject from non-adjacent switch %d", hop.From)
			}
		case SwitchToSwitch:
			from, to := t.Switch(hop.From), t.Switch(hop.To)
			switch {
			case to.Level == from.Level-1: // ascending
				if descending {
					return fmt.Errorf("routing: ascent after descent at position %d", i)
				}
				if !contains(from.Up, hop.To) {
					return fmt.Errorf("routing: %d is not a parent of %d", hop.To, hop.From)
				}
			case to.Level == from.Level+1: // descending
				descending = true
				if !contains(from.Down, hop.To) {
					return fmt.Errorf("routing: %d is not a child of %d", hop.To, hop.From)
				}
			default:
				return fmt.Errorf("routing: hop %d→%d skips levels", hop.From, hop.To)
			}
		}
		if i > 0 && path[i-1].To != hop.From {
			return fmt.Errorf("routing: discontinuity at position %d", i)
		}
	}
	return nil
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// ChannelKey uniquely identifies a directed channel used by a hop. Node
// and switch id spaces overlap, so the kind participates in the key.
type ChannelKey struct {
	Kind     HopKind
	From, To int
}

// Key returns the directed-channel identity of a hop.
func (h Hop) Key() ChannelKey { return ChannelKey{Kind: h.Kind, From: h.From, To: h.To} }
