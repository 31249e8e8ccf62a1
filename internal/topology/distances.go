package topology

// This file implements the traffic-distance mathematics of the paper:
// Eq (6) — the probability that a uniformly-addressed message crosses 2h
// links — and Eqs (8)–(9), the mean number of links crossed.

// DistanceDistribution returns P_{h,n} for h = 1..n as a slice indexed by
// h−1 (Eq 6). Under uniform traffic, a message originating anywhere
// crosses 2h links with probability:
//
//	P_{h,n} = (k−1)·k^(h−1) / (N−1)      h = 1 … n−1
//	P_{n,n} = (2k−1)·k^(n−1) / (N−1)
//
// The distribution is exact for any fixed source (and for any fixed
// destination, by symmetry), which the enumeration tests verify.
func (t *Tree) DistanceDistribution() []float64 {
	k := float64(t.K)
	total := float64(t.nodes - 1)
	p := make([]float64, t.N)
	kPow := 1.0 // k^(h−1)
	for h := 1; h <= t.N-1; h++ {
		p[h-1] = (k - 1) * kPow / total
		kPow *= k
	}
	p[t.N-1] = (2*k - 1) * kPow / total
	return p
}

// MeanDistanceLinks returns D = Σ_h 2h·P_{h,n} (Eq 8), the average number
// of links a uniformly-addressed message crosses.
func (t *Tree) MeanDistanceLinks() float64 {
	var d float64
	for i, p := range t.DistanceDistribution() {
		d += 2 * float64(i+1) * p
	}
	return d
}
