package wormhole

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/ccnet/ccnet/internal/des"
)

// TestDeepBuffersMatchShallowWhenUncontended: without blocking, buffer
// depth must not change any timing — the pipeline is arrival-dominated.
func TestDeepBuffersMatchShallowWhenUncontended(t *testing.T) {
	times := []float64{0.3, 0.7, 0.2, 0.5}
	const M = 16
	run := func(depth int) []float64 {
		var k des.Kernel
		e := NewEngine(&k)
		chans := make([]*Channel, len(times))
		for i, s := range times {
			chans[i] = e.NewBufferedChannel("c", s, depth)
		}
		var exits []float64
		e.Start(&Journey{Route: e.NewRoute(chans), Flits: M, OnComplete: func(_ *Journey, ex []float64) {
			exits = append([]float64{}, ex...)
		}}, 0)
		k.Run(nil)
		return exits
	}
	shallow := run(1)
	deep := run(64)
	for j := range shallow {
		if math.Abs(shallow[j]-deep[j]) > 1e-9 {
			t.Fatalf("flit %d exit differs with depth: %v vs %v", j, shallow[j], deep[j])
		}
	}
}

// TestDeepBuffersAbsorbBlocking reproduces the upstream-holding scenario:
// with single-flit buffers a blocked message holds its upstream channel;
// with buffers at least one message deep, its flits park downstream and
// the upstream channel frees early.
func TestDeepBuffersAbsorbBlocking(t *testing.T) {
	const M = 4
	run := func(depth int) (cDone float64) {
		var k des.Kernel
		e := NewEngine(&k)
		y := e.NewBufferedChannel("y", 1.0, depth)
		z := e.NewBufferedChannel("z", 1.0, depth)
		// A occupies z for [0,4]; B goes y→z; C wants y.
		e.Start(&Journey{Route: e.NewRoute([]*Channel{z}), Flits: M}, 0)
		e.Start(&Journey{Route: e.NewRoute([]*Channel{y, z}), Flits: M}, 0)
		e.Start(&Journey{Route: e.NewRoute([]*Channel{y}), Flits: M, OnComplete: func(_ *Journey, ex []float64) {
			cDone = ex[M-1]
		}}, 0.5)
		k.Run(nil)
		return cDone
	}
	// Depth 1: B's flits stall on y while its head waits for z → C at 11
	// (verified analytically in TestBlockedHeadHoldsUpstreamChannels).
	if got := run(1); math.Abs(got-11.0) > 1e-9 {
		t.Fatalf("depth 1: C delivered at %v, want 11", got)
	}
	// Depth ≥ M: B's flits park in z's input buffer; y frees at t=4, C
	// runs 4→8.
	if got := run(M); math.Abs(got-8.0) > 1e-9 {
		t.Fatalf("depth %d: C delivered at %v, want 8", M, got)
	}
}

// TestIntermediateDepthInterpolates: depth 2 frees the upstream channel
// strictly earlier than depth 1 and no earlier than depth M.
func TestIntermediateDepthInterpolates(t *testing.T) {
	const M = 8
	release := func(depth int) float64 {
		var k des.Kernel
		e := NewEngine(&k)
		y := e.NewBufferedChannel("y", 1.0, depth)
		z := e.NewBufferedChannel("z", 1.0, depth)
		e.Start(&Journey{Route: e.NewRoute([]*Channel{z}), Flits: M}, 0) // blocker
		e.Start(&Journey{Route: e.NewRoute([]*Channel{y, z}), Flits: M}, 0)
		k.Run(nil)
		return y.BusyTime // y held exactly [0, tail crossing]
	}
	r1, r2, r4, rM := release(1), release(2), release(4), release(M)
	if !(r1 > r2 && r2 > r4 && r4 > rM) {
		t.Fatalf("upstream holding not decreasing with depth: %v %v %v %v", r1, r2, r4, rM)
	}
}

// TestBufferDepthConservation: arbitrary contended workloads complete
// regardless of (mixed) buffer depths, and per-journey exits stay
// strictly increasing.
func TestBufferDepthConservation(t *testing.T) {
	f := func(seed uint8) bool {
		var k des.Kernel
		e := NewEngine(&k)
		depths := []int{1, 2, 3, 8, 16}
		pool := make([]*Channel, 5)
		for i := range pool {
			pool[i] = e.NewBufferedChannel("p", 0.2+float64(i)*0.1, depths[(int(seed)+i)%len(depths)])
		}
		n := 4 + int(seed%9)
		done := 0
		ok := true
		for m := 0; m < n; m++ {
			lo, hi := m%2, 2+m%3
			var chans []*Channel
			for i := lo; i <= hi; i++ {
				chans = append(chans, pool[i])
			}
			e.Start(&Journey{Route: e.NewRoute(chans), Flits: 1 + m%9, OnComplete: func(_ *Journey, ex []float64) {
				done++
				for i := 1; i < len(ex); i++ {
					if ex[i] <= ex[i-1] {
						ok = false
					}
				}
			}}, float64(m)*0.3)
		}
		k.Run(nil)
		return ok && done == n && e.Started == e.Completed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestUncontendedClosedFormProperty: for any channel times and flit
// count, an uncontended journey's delivery time is exactly
// Σ_k s_k + (M−1)·max_k s_k — heads pay every hop, the tail streams at
// the bottleneck rate. This pins the engine to wormhole pipeline theory.
func TestUncontendedClosedFormProperty(t *testing.T) {
	f := func(raw []uint8, mRaw uint8) bool {
		if len(raw) == 0 || len(raw) > 12 {
			return true
		}
		M := 1 + int(mRaw%40)
		var k des.Kernel
		e := NewEngine(&k)
		chans := make([]*Channel, len(raw))
		var sum, max float64
		for i, r := range raw {
			s := 0.05 + float64(r%50)/20
			chans[i] = e.NewChannel("c", s)
			sum += s
			if s > max {
				max = s
			}
		}
		var delivered float64
		e.Start(&Journey{Route: e.NewRoute(chans), Flits: M, OnComplete: func(_ *Journey, ex []float64) {
			delivered = ex[M-1]
		}}, 0)
		k.Run(nil)
		want := sum + float64(M-1)*max
		return math.Abs(delivered-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestNewBufferedChannelValidation(t *testing.T) {
	var k des.Kernel
	e := NewEngine(&k)
	defer func() {
		if recover() == nil {
			t.Fatal("depth 0 did not panic")
		}
	}()
	e.NewBufferedChannel("bad", 1, 0)
}
