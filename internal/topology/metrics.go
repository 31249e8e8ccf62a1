package topology

// Structural metrics of the m-port n-tree used by capacity analyses.

// TotalLinks returns the number of bidirectional links: 2k^n node links
// plus k^n switch links per adjacent level pair (n−1 pairs counting the
// shared root level once per half).
func (t *Tree) TotalLinks() int {
	nodeLinks := t.nodes
	switchLinks := 0
	for id := 0; id < len(t.switches); id++ {
		switchLinks += len(t.switches[id].Down)
	}
	return nodeLinks + switchLinks
}
