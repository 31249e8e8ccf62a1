// Package topology constructs and queries m-port n-tree fat-trees, the
// interconnect the paper adopts for every network in the system (ref [17]
// of the paper).
//
// An m-port n-tree with k = m/2 has 2·k^n processing nodes and
// (2n−1)·k^(n−1) switches, arranged as two k-ary n-trees sharing a single
// root level; root switches use all m ports downward (k into each half).
// Every switch covers a contiguous interval of leaf (node) ids, which makes
// ancestor tests and deterministic descent O(1) interval queries.
//
// Levels are numbered 0 (roots) to n−1 (leaf switches adjacent to nodes).
package topology

import (
	"fmt"
)

// Switch is one network switch. Up lists parent switch ids (freed-digit
// order), Down lists child switch ids for internal levels; leaf-level
// switches have no Down switches (their descendants are nodes). Roots have
// 2k Down entries (halves concatenated), other switches k.
type Switch struct {
	ID    int
	Level int   // 0 = root … n−1 = leaf
	Half  int   // 0 or 1; −1 for shared root level
	Label []int // n−1 digits in [0,k)
	Up    []int // parent switch ids, indexed by freed-digit value
	Down  []int // child switch ids (internal levels only)

	// LeafLo/LeafHi delimit the half-open interval of node ids reachable
	// through this switch's descendants.
	LeafLo, LeafHi int
}

// Tree is an immutable m-port n-tree.
type Tree struct {
	M, N int // ports per switch, tree height
	K    int // M/2

	nodes    int
	switches []Switch
	kPowers  []int // k^0 … k^n
}

// New builds an m-port n-tree. m must be even and >= 2; n must be >= 1.
func New(m, n int) (*Tree, error) {
	if m < 2 || m%2 != 0 {
		return nil, fmt.Errorf("topology: m must be an even integer >= 2, got %d", m)
	}
	if n < 1 || n > 32 {
		return nil, fmt.Errorf("topology: n must be in [1,32], got %d", n)
	}
	k := m / 2
	t := &Tree{M: m, N: n, K: k}
	t.kPowers = make([]int, n+1)
	t.kPowers[0] = 1
	for i := 1; i <= n; i++ {
		t.kPowers[i] = t.kPowers[i-1] * k
		if t.kPowers[i] > 1<<28 {
			return nil, fmt.Errorf("topology: m=%d n=%d is too large", m, n)
		}
	}
	t.nodes = 2 * t.kPowers[n]
	t.build()
	return t, nil
}

// Nodes returns the number of processing nodes, 2·k^n.
func (t *Tree) Nodes() int { return t.nodes }

// NumSwitches returns the number of switches, (2n−1)·k^(n−1).
func (t *Tree) NumSwitches() int { return len(t.switches) }

// Switch returns the switch with the given id.
func (t *Tree) Switch(id int) *Switch { return &t.switches[id] }

// columns returns k^(n−1), the number of switches per level per half.
func (t *Tree) columns() int { return t.kPowers[t.N-1] }

// NumRoots returns the number of root switches, k^(n−1).
func (t *Tree) NumRoots() int { return t.columns() }

// Root returns the id of the root switch whose label encodes index
// idx ∈ [0, NumRoots()).
func (t *Tree) Root(idx int) int {
	if idx < 0 || idx >= t.columns() {
		panic(fmt.Sprintf("topology: root index %d out of range [0,%d)", idx, t.columns()))
	}
	return idx
}

// switchID computes the id for (level, half, columnValue). Roots (level 0)
// ignore half.
func (t *Tree) switchID(level, half, col int) int {
	if level == 0 {
		return col
	}
	cols := t.columns()
	return cols + (level-1)*2*cols + half*cols + col
}

// labelValue interprets digits (most-significant first) in base k.
func (t *Tree) labelValue(digits []int) int {
	v := 0
	for _, d := range digits {
		v = v*t.K + d
	}
	return v
}

// digitsOf writes the n−1 base-k digits of col into a fresh slice.
func (t *Tree) digitsOf(col int) []int {
	n := t.N
	d := make([]int, n-1)
	for i := n - 2; i >= 0; i-- {
		d[i] = col % t.K
		col /= t.K
	}
	return d
}

// NodeHalf returns the half (0 or 1) of the tree a node id lies in.
func (t *Tree) NodeHalf(node int) int {
	t.checkNode(node)
	return node / t.kPowers[t.N]
}

// NodeDigit returns digit d_{i+1} (i ∈ [0, n)) of a node id's base-k
// label within its half, most significant first, without building the
// label.
func (t *Tree) NodeDigit(node, i int) int {
	t.checkNode(node)
	return node / t.kPowers[t.N-1-i] % t.K
}

func (t *Tree) checkNode(node int) {
	if node < 0 || node >= t.nodes {
		panic(fmt.Sprintf("topology: node %d out of range [0,%d)", node, t.nodes))
	}
}

// LeafSwitchOf returns the id of the leaf switch a node attaches to.
func (t *Tree) LeafSwitchOf(node int) int {
	t.checkNode(node)
	half := node / t.kPowers[t.N]
	col := (node % t.kPowers[t.N]) / t.K
	if t.N == 1 {
		// Single-level trees have only the shared root level; both halves
		// attach to the single root switch.
		return 0
	}
	return t.switchID(t.N-1, half, col)
}

// build materializes every switch and its adjacency.
func (t *Tree) build() {
	n, k := t.N, t.K
	cols := t.columns()
	total := (2*n - 1) * cols
	t.switches = make([]Switch, total)

	// Root level.
	for c := 0; c < cols; c++ {
		sw := &t.switches[t.switchID(0, 0, c)]
		sw.ID = t.switchID(0, 0, c)
		sw.Level = 0
		sw.Half = -1
		sw.Label = t.digitsOf(c)
		sw.LeafLo, sw.LeafHi = 0, t.nodes
		if n > 1 {
			sw.Down = make([]int, 2*k)
			for h := 0; h < 2; h++ {
				for d1 := 0; d1 < k; d1++ {
					// Child at level 1 agrees in all digits except
					// position 1 (index 0), which takes value d1.
					child := make([]int, n-1)
					copy(child, sw.Label)
					child[0] = d1
					sw.Down[h*k+d1] = t.switchID(1, h, t.labelValue(child))
				}
			}
		}
	}

	// Internal and leaf levels.
	for l := 1; l <= n-1; l++ {
		for h := 0; h < 2; h++ {
			for c := 0; c < cols; c++ {
				id := t.switchID(l, h, c)
				sw := &t.switches[id]
				sw.ID = id
				sw.Level = l
				sw.Half = h
				sw.Label = t.digitsOf(c)

				// Covered leaves: prefix digits 1..l of the label.
				prefix := 0
				for i := 0; i < l; i++ {
					prefix = prefix*k + sw.Label[i]
				}
				span := t.kPowers[n-l]
				sw.LeafLo = h*t.kPowers[n] + prefix*span
				sw.LeafHi = sw.LeafLo + span

				// Parents: level l−1; digit at position l (index l−1)
				// freed.
				sw.Up = make([]int, k)
				for v := 0; v < k; v++ {
					parent := make([]int, n-1)
					copy(parent, sw.Label)
					parent[l-1] = v
					if l-1 == 0 {
						sw.Up[v] = t.switchID(0, 0, t.labelValue(parent))
					} else {
						sw.Up[v] = t.switchID(l-1, h, t.labelValue(parent))
					}
				}

				// Children: level l+1 switches (internal) — leaf-level
				// switches descend to nodes instead.
				if l < n-1 {
					sw.Down = make([]int, k)
					for v := 0; v < k; v++ {
						child := make([]int, n-1)
						copy(child, sw.Label)
						child[l] = v
						sw.Down[v] = t.switchID(l+1, h, t.labelValue(child))
					}
				}
			}
		}
	}
}

// Covers reports whether node is reachable through sw's descendants.
func (t *Tree) Covers(swID, node int) bool {
	sw := &t.switches[swID]
	return node >= sw.LeafLo && node < sw.LeafHi
}

// NCAHeight returns h, the number of links in the ascending phase of a
// src→dst journey (the journey crosses 2h links in total). It panics if
// src == dst or either id is out of range.
func (t *Tree) NCAHeight(src, dst int) int {
	if src == dst {
		panic("topology: NCAHeight of a node with itself")
	}
	t.checkNode(src)
	t.checkNode(dst)
	// Nodes share digits d_1…d_{j+1} exactly when they agree after
	// dividing by k^(n−1−j); the halves are the digit above d_1.
	if src/t.kPowers[t.N] != dst/t.kPowers[t.N] {
		return t.N // nearest common ancestors are the roots
	}
	for j := 0; j < t.N; j++ {
		if p := t.kPowers[t.N-1-j]; src/p != dst/p {
			// First differing digit at 1-based position j+1 → NCA at
			// level j → ascending phase of n−j links.
			return t.N - j
		}
	}
	panic("topology: distinct nodes with identical digits")
}

// DistanceLinks returns the total number of links (2h) a message crosses
// from src to dst under Up*/Down* routing.
func (t *Tree) DistanceLinks(src, dst int) int { return 2 * t.NCAHeight(src, dst) }
