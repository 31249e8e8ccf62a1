package topology

import "fmt"

// Oracles the package's tests check the tree against: structural
// metrics from fat-tree theory, a full structural audit, and brute-force
// distance distributions.

// Diameter returns the maximum number of links between any two nodes
// under Up*/Down* routing: two nodes in different halves meet at the
// roots, crossing 2n links.
func (t *Tree) Diameter() int {
	if t.nodes <= 1 {
		return 0
	}
	return 2 * t.N
}

// BisectionLinks returns the number of links crossing the halves
// boundary. Both halves attach only at the shared root level: each of the
// k^(n−1) roots has k links into each half, so the bisection is k^n links
// — half the node count, the "constant bisectional bandwidth" property
// the paper cites for fat-trees (§2).
func (t *Tree) BisectionLinks() int {
	if t.N == 1 {
		// The lone switch is the bisection: m ports split 2k nodes, the
		// narrowest cut between halves is k node links.
		return t.K
	}
	return t.kPowers[t.N]
}

// AvgPathLinks returns the exact all-pairs mean link count (Eq 8 is its
// closed form; this method computes it from the distance distribution and
// is used to cross-check channel-rate derivations).
func (t *Tree) AvgPathLinks() float64 { return t.MeanDistanceLinks() }

// PortsUsed returns the total number of switch ports wired (up + down +
// node-facing), for switch-radix audits: no switch may exceed m ports.
func (t *Tree) PortsUsed(swID int) int {
	sw := &t.switches[swID]
	ports := len(sw.Up) + len(sw.Down)
	if sw.Level == t.N-1 || (t.N == 1 && sw.Level == 0) {
		ports += sw.LeafHi - sw.LeafLo // node-facing ports
	}
	return ports
}

// NodesOfLeafSwitch returns the node ids attached to a leaf switch.
func (t *Tree) NodesOfLeafSwitch(swID int) []int {
	sw := &t.switches[swID]
	if sw.Level != t.N-1 && !(t.N == 1 && sw.Level == 0) {
		panic(fmt.Sprintf("topology: switch %d is not a leaf switch", swID))
	}
	out := make([]int, 0, sw.LeafHi-sw.LeafLo)
	for v := sw.LeafLo; v < sw.LeafHi; v++ {
		out = append(out, v)
	}
	return out
}

// EnumerateDistanceDistribution computes the distance distribution by
// brute force over all ordered (src,dst) pairs. Exponential in n·log k —
// intended for validation on small trees only.
func (t *Tree) EnumerateDistanceDistribution() []float64 {
	counts := make([]int, t.N)
	for s := 0; s < t.nodes; s++ {
		for d := 0; d < t.nodes; d++ {
			if s == d {
				continue
			}
			counts[t.NCAHeight(s, d)-1]++
		}
	}
	total := float64(t.nodes) * float64(t.nodes-1)
	p := make([]float64, t.N)
	for i, c := range counts {
		p[i] = float64(c) / total
	}
	return p
}

// FixedDestinationDistribution returns the distribution of the ascending
// height h for journeys from a uniformly random source to the given fixed
// destination: the gateway-bound (ECN1-crossing) distance distribution
// of the simulator's concrete concentrator placement.
func (t *Tree) FixedDestinationDistribution(dst int) []float64 {
	counts := make([]int, t.N)
	for s := 0; s < t.nodes; s++ {
		if s == dst {
			continue
		}
		counts[t.NCAHeight(s, dst)-1]++
	}
	p := make([]float64, t.N)
	for i, c := range counts {
		p[i] = float64(c) / float64(t.nodes-1)
	}
	return p
}

// Verify performs a full structural audit of the tree and returns the
// first violated invariant, if any. It is O(switches·k).
func (t *Tree) Verify() error {
	n, k := t.N, t.K
	cols := t.columns()

	if want := 2 * t.kPowers[n]; t.nodes != want {
		return fmt.Errorf("topology: node count %d, want 2k^n = %d", t.nodes, want)
	}
	if want := (2*n - 1) * cols; len(t.switches) != want {
		return fmt.Errorf("topology: switch count %d, want (2n−1)k^(n−1) = %d", len(t.switches), want)
	}

	for i := range t.switches {
		sw := &t.switches[i]
		if sw.ID != i {
			return fmt.Errorf("topology: switch %d stores id %d", i, sw.ID)
		}
		if len(sw.Label) != n-1 {
			return fmt.Errorf("topology: switch %d label has %d digits, want %d", i, len(sw.Label), n-1)
		}

		// Port cardinality.
		switch {
		case sw.Level == 0 && n > 1:
			if len(sw.Up) != 0 || len(sw.Down) != 2*k {
				return fmt.Errorf("topology: root %d has %d up / %d down ports, want 0/%d", i, len(sw.Up), len(sw.Down), 2*k)
			}
		case sw.Level == 0 && n == 1:
			if len(sw.Up) != 0 || len(sw.Down) != 0 {
				return fmt.Errorf("topology: lone root %d must have no switch ports", i)
			}
		case sw.Level == n-1:
			if len(sw.Up) != k || len(sw.Down) != 0 {
				return fmt.Errorf("topology: leaf switch %d has %d up / %d down switch ports, want %d/0", i, len(sw.Up), len(sw.Down), k)
			}
		default:
			if len(sw.Up) != k || len(sw.Down) != k {
				return fmt.Errorf("topology: switch %d has %d up / %d down ports, want %d/%d", i, len(sw.Up), len(sw.Down), k, k)
			}
		}

		// Bidirectional consistency: every down edge must appear as an up
		// edge of the child and vice versa.
		for _, child := range sw.Down {
			c := &t.switches[child]
			found := false
			for _, p := range c.Up {
				if p == sw.ID {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("topology: switch %d lists child %d, child does not list it as parent", sw.ID, child)
			}
			if c.Level != sw.Level+1 {
				return fmt.Errorf("topology: switch %d (level %d) has child %d at level %d", sw.ID, sw.Level, child, c.Level)
			}
		}
		for _, parent := range sw.Up {
			p := &t.switches[parent]
			found := false
			for _, c := range p.Down {
				if c == sw.ID {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("topology: switch %d lists parent %d, parent does not list it as child", sw.ID, parent)
			}
		}

		// Interval sanity.
		if sw.LeafLo < 0 || sw.LeafHi > t.nodes || sw.LeafLo >= sw.LeafHi {
			return fmt.Errorf("topology: switch %d has invalid leaf interval [%d,%d)", sw.ID, sw.LeafLo, sw.LeafHi)
		}
		// Children partition the parent's interval.
		if len(sw.Down) > 0 {
			covered := 0
			for _, child := range sw.Down {
				c := &t.switches[child]
				if c.LeafLo < sw.LeafLo || c.LeafHi > sw.LeafHi {
					return fmt.Errorf("topology: child %d interval [%d,%d) escapes parent %d [%d,%d)",
						child, c.LeafLo, c.LeafHi, sw.ID, sw.LeafLo, sw.LeafHi)
				}
				covered += c.LeafHi - c.LeafLo
			}
			if covered != sw.LeafHi-sw.LeafLo {
				return fmt.Errorf("topology: children of switch %d cover %d leaves, interval holds %d",
					sw.ID, covered, sw.LeafHi-sw.LeafLo)
			}
		}
	}

	// Every node maps to a leaf switch that covers it with span k (or m
	// for the degenerate n = 1 tree).
	for v := 0; v < t.nodes; v++ {
		ls := t.LeafSwitchOf(v)
		sw := &t.switches[ls]
		if !t.Covers(ls, v) {
			return fmt.Errorf("topology: node %d not covered by its leaf switch %d", v, ls)
		}
		wantSpan := k
		if n == 1 {
			wantSpan = 2 * k
		}
		if sw.LeafHi-sw.LeafLo != wantSpan {
			return fmt.Errorf("topology: leaf switch %d spans %d nodes, want %d", ls, sw.LeafHi-sw.LeafLo, wantSpan)
		}
	}
	return nil
}
