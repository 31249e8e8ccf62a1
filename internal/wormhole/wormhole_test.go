package wormhole

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/ccnet/ccnet/internal/des"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// runOne drives a single journey over fresh channels and returns its exit
// times and acquisition times.
func runOne(t *testing.T, flitTimes []float64, flits int) ([]float64, []float64) {
	t.Helper()
	var k des.Kernel
	e := NewEngine(&k)
	chans := make([]*Channel, len(flitTimes))
	for i, s := range flitTimes {
		chans[i] = e.NewChannel("c", s)
	}
	var exits []float64
	var acq []float64
	j := &Journey{Route: e.NewRoute(chans), Flits: flits, OnComplete: func(j *Journey, ex []float64) {
		exits = append([]float64{}, ex...)
		acq = append([]float64{}, j.Acquire...)
	}}
	e.Start(j, 0)
	k.Run(nil)
	if exits == nil {
		t.Fatal("journey never completed")
	}
	return exits, acq
}

func TestUncontendedUniformPipeline(t *testing.T) {
	// L channels of flit time s, M flits, no contention:
	// delivery = L·s + (M−1)·s.
	const s = 0.5
	const L, M = 6, 32
	times := make([]float64, L)
	for i := range times {
		times[i] = s
	}
	exits, acq := runOne(t, times, M)
	for k := 0; k < L; k++ {
		if !almost(acq[k], float64(k)*s) {
			t.Fatalf("acquire[%d] = %v, want %v", k, acq[k], float64(k)*s)
		}
	}
	want := float64(L)*s + float64(M-1)*s
	if !almost(exits[M-1], want) {
		t.Fatalf("delivery = %v, want %v", exits[M-1], want)
	}
	// Flits exit at exactly the link rate.
	for j := 1; j < M; j++ {
		if !almost(exits[j]-exits[j-1], s) {
			t.Fatalf("inter-exit gap %v at flit %d, want %v", exits[j]-exits[j-1], j, s)
		}
	}
}

func TestBottleneckGovernsThroughput(t *testing.T) {
	// A slow middle channel limits steady-state flit rate to its time.
	times := []float64{0.2, 1.0, 0.2}
	const M = 16
	exits, _ := runOne(t, times, M)
	for j := 2; j < M; j++ {
		gap := exits[j] - exits[j-1]
		if !almost(gap, 1.0) {
			t.Fatalf("steady-state gap %v at flit %d, want 1.0 (bottleneck)", gap, j)
		}
	}
	// Head latency: 0.2 + 1.0 + 0.2; tail follows at bottleneck rate.
	wantDelivery := 1.4 + float64(M-1)*1.0
	if !almost(exits[M-1], wantDelivery) {
		t.Fatalf("delivery = %v, want %v", exits[M-1], wantDelivery)
	}
}

func TestSingleChannelSerialization(t *testing.T) {
	// One channel: flits cross back to back, M·s total.
	exits, _ := runOne(t, []float64{0.25}, 8)
	if !almost(exits[7], 2.0) {
		t.Fatalf("delivery = %v, want 2.0", exits[7])
	}
}

func TestFIFOContention(t *testing.T) {
	// Two messages sharing one channel: the second is served after the
	// first's tail passes.
	var k des.Kernel
	e := NewEngine(&k)
	ch := e.NewChannel("shared", 1.0)
	const M = 4
	var done [2]float64
	for i := 0; i < 2; i++ {
		i := i
		j := &Journey{Route: e.NewRoute([]*Channel{ch}), Flits: M, OnComplete: func(_ *Journey, ex []float64) {
			done[i] = ex[M-1]
		}}
		e.Start(j, 0)
	}
	k.Run(nil)
	if !almost(done[0], 4.0) {
		t.Fatalf("first message delivered at %v, want 4", done[0])
	}
	if !almost(done[1], 8.0) {
		t.Fatalf("second message delivered at %v, want 8 (FIFO after first)", done[1])
	}
	if ch.MaxQueue != 1 {
		t.Fatalf("MaxQueue = %d, want 1", ch.MaxQueue)
	}
	if ch.Acquisitions != 2 {
		t.Fatalf("Acquisitions = %d, want 2", ch.Acquisitions)
	}
}

func TestBlockedHeadHoldsUpstreamChannels(t *testing.T) {
	// Message A occupies channel Z for a long time. Message B's path is
	// Y→Z: B acquires Y, blocks on Z, and must keep holding Y the whole
	// wait (wormhole, not store-and-forward), delaying message C behind it
	// on Y.
	var k des.Kernel
	e := NewEngine(&k)
	y := e.NewChannel("y", 1.0)
	z := e.NewChannel("z", 1.0)
	const M = 4

	var aDone, bDone, cDone float64
	a := &Journey{Route: e.NewRoute([]*Channel{z}), Flits: M, OnComplete: func(_ *Journey, ex []float64) { aDone = ex[M-1] }}
	b := &Journey{Route: e.NewRoute([]*Channel{y, z}), Flits: M, OnComplete: func(_ *Journey, ex []float64) { bDone = ex[M-1] }}
	c := &Journey{Route: e.NewRoute([]*Channel{y}), Flits: M, OnComplete: func(_ *Journey, ex []float64) { cDone = ex[M-1] }}
	e.Start(a, 0)
	e.Start(b, 0)
	e.Start(c, 0.5)
	k.Run(nil)

	if !almost(aDone, 4.0) {
		t.Fatalf("A delivered at %v, want 4", aDone)
	}
	// B: acquires y at 0, head reaches z at 1, z frees at 4 (A's tail),
	// B's flits then stream: delivery 4+1+3 = 8.
	if !almost(bDone, 8.0) {
		t.Fatalf("B delivered at %v, want 8", bDone)
	}
	// C needs y, which B holds until its own tail crosses y. B's tail
	// crosses y at d(3,0): tail start on y = start(2,z) = 4+3 → wait:
	// start(j,y)=start(j−1,z); start(0,z)=4, so start(3,y)=start(2,z)=6,
	// d(3,y)=7. C then runs 7→11.
	if !almost(cDone, 11.0) {
		t.Fatalf("C delivered at %v, want 11 (B must hold y while blocked)", cDone)
	}
}

func TestAvailThrottlesInjection(t *testing.T) {
	// Flits arriving from upstream slower than the channel rate dominate
	// exit spacing.
	var k des.Kernel
	e := NewEngine(&k)
	ch := e.NewChannel("c", 0.1)
	const M = 5
	avail := []float64{0, 2, 4, 6, 8}
	var exits []float64
	j := &Journey{Route: e.NewRoute([]*Channel{ch}), Flits: M, Avail: avail,
		OnComplete: func(_ *Journey, ex []float64) { exits = append([]float64{}, ex...) }}
	e.Start(j, 0)
	k.Run(nil)
	for i := 0; i < M; i++ {
		want := avail[i] + 0.1
		if !almost(exits[i], want) {
			t.Fatalf("exit[%d] = %v, want %v", i, exits[i], want)
		}
	}
}

func TestChainedJourneysThroughBuffer(t *testing.T) {
	// Journey 1 (slow links) feeds journey 2 (fast links) through a
	// store-and-forward buffer: journey 2's exits are governed by arrival
	// from journey 1 (cut-through, not full-message buffering).
	var k des.Kernel
	e := NewEngine(&k)
	slow := e.NewChannel("slow", 1.0)
	fast := e.NewChannel("fast", 0.1)
	const M = 8
	var final []float64
	j1 := &Journey{Route: e.NewRoute([]*Channel{slow}), Flits: M, OnComplete: func(_ *Journey, ex []float64) {
		j2 := &Journey{Route: e.NewRoute([]*Channel{fast}), Flits: M, Avail: ex,
			OnComplete: func(_ *Journey, ex2 []float64) { final = append([]float64{}, ex2...) }}
		e.Start(j2, ex[0])
	}}
	e.Start(j1, 0)
	k.Run(nil)
	if final == nil {
		t.Fatal("chained journey never completed")
	}
	// Flit j leaves the buffer at j+1 (slow rate), crosses fast in 0.1.
	for j := 0; j < M; j++ {
		want := float64(j+1) + 0.1
		if !almost(final[j], want) {
			t.Fatalf("chained exit[%d] = %v, want %v", j, final[j], want)
		}
	}
}

func TestReleaseTimesAreTailCrossings(t *testing.T) {
	// Channel utilization equals held time: for a lone journey over two
	// equal channels, channel 0 is held [0, (M)·s] … verified via
	// BusyTime after the run.
	var k des.Kernel
	e := NewEngine(&k)
	c0 := e.NewChannel("c0", 0.5)
	c1 := e.NewChannel("c1", 0.5)
	j := &Journey{Route: e.NewRoute([]*Channel{c0, c1}), Flits: 4}
	e.Start(j, 0)
	k.Run(nil)
	// Tail crosses c0 at d(3,0): start(3,0)=start(2,1)=…
	// uniform rate: d(j,0) = (j+1)·0.5 → busy [0, 2.0].
	if !almost(c0.BusyTime, 2.0) {
		t.Fatalf("c0 busy %v, want 2.0", c0.BusyTime)
	}
	// c1 held [0.5, 2.5].
	if !almost(c1.BusyTime, 2.0) {
		t.Fatalf("c1 busy %v, want 2.0", c1.BusyTime)
	}
}

func TestConservationUnderRandomContention(t *testing.T) {
	// Property: any number of random journeys over a shared channel pool
	// all complete, exits are strictly increasing per journey, and
	// acquisition times are non-decreasing along each path.
	f := func(seed uint8) bool {
		var k des.Kernel
		e := NewEngine(&k)
		pool := make([]*Channel, 5)
		for i := range pool {
			pool[i] = e.NewChannel("p", 0.1+float64(i)*0.07)
		}
		n := 3 + int(seed%13)
		completed := 0
		ok := true
		for m := 0; m < n; m++ {
			// Path visits channels in increasing index order (acyclic —
			// mirrors up/down ordering, so no deadlock).
			lo := m % 3
			hi := 3 + m%2
			var chans []*Channel
			for i := lo; i <= hi; i++ {
				chans = append(chans, pool[i])
			}
			j := &Journey{Route: e.NewRoute(chans), Flits: 1 + m%7, OnComplete: func(j *Journey, ex []float64) {
				completed++
				for i := 1; i < len(ex); i++ {
					if ex[i] <= ex[i-1] {
						ok = false
					}
				}
				for i := 1; i < len(j.Acquire); i++ {
					if j.Acquire[i] < j.Acquire[i-1] {
						ok = false
					}
				}
			}}
			e.Start(j, float64(m)*0.05)
		}
		k.Run(nil)
		return ok && completed == n && e.Started == e.Completed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestChannelUtilizationBounds(t *testing.T) {
	var k des.Kernel
	e := NewEngine(&k)
	ch := e.NewChannel("c", 1.0)
	for i := 0; i < 10; i++ {
		e.Start(&Journey{Route: e.NewRoute([]*Channel{ch}), Flits: 2}, 0)
	}
	k.Run(nil)
	u := ch.Utilization(k.Now())
	if u < 0.99 || u > 1.0000001 {
		t.Fatalf("back-to-back utilization = %v, want ~1", u)
	}
}

func TestStartValidation(t *testing.T) {
	var k des.Kernel
	e := NewEngine(&k)
	ch := e.NewChannel("c", 1)
	cases := []*Journey{
		{Flits: 1},
		{Route: e.NewRoute([]*Channel{ch}), Flits: 0},
		{Route: e.NewRoute([]*Channel{ch}), Flits: 2, Avail: []float64{0}},
	}
	for i, j := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			e.Start(j, 0)
		}()
	}
	if _, err := func() (x int, err error) { return 0, nil }(); err != nil {
		t.Fatal(err)
	}
}

// TestNewRouteValidation: a route needs at least one channel, every
// channel registered with the compiling engine, and every buffer depth
// at least 1 when it compiles.
func TestNewRouteValidation(t *testing.T) {
	var k, other des.Kernel
	e := NewEngine(&k)
	ch := e.NewChannel("c", 1)
	foreign := NewEngine(&other).NewChannel("foreign", 1)
	shallow := e.NewChannel("shallow", 1)
	shallow.BufferDepth = 0
	cases := [][]*Channel{
		nil,
		{ch, foreign},
		{&Channel{Name: "unregistered", FlitTime: 1, BufferDepth: 1}},
		{ch, shallow},
	}
	for i, chans := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			e.NewRoute(chans)
		}()
	}
}

func TestNewChannelRejectsBadFlitTime(t *testing.T) {
	var k des.Kernel
	e := NewEngine(&k)
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewChannel with flit time %v did not panic", bad)
				}
			}()
			e.NewChannel("bad", bad)
		}()
	}
}

func TestFIFOQueueInternals(t *testing.T) {
	var f fifo
	if _, ok := f.pop(); ok {
		t.Fatal("pop from empty fifo succeeded")
	}
	js := make([]*Journey, 50)
	for i := range js {
		js[i] = &Journey{}
		f.push(js[i])
	}
	// Interleave pops and pushes to exercise wraparound.
	for i := 0; i < 20; i++ {
		j, ok := f.pop()
		if !ok || j != js[i] {
			t.Fatalf("pop %d returned wrong journey", i)
		}
	}
	extra := &Journey{}
	f.push(extra)
	for i := 20; i < 50; i++ {
		j, ok := f.pop()
		if !ok || j != js[i] {
			t.Fatalf("pop %d after wrap returned wrong journey", i)
		}
	}
	j, ok := f.pop()
	if !ok || j != extra {
		t.Fatal("final pop did not return the wrapped element")
	}
	if f.len() != 0 {
		t.Fatalf("fifo length %d after draining, want 0", f.len())
	}
}

// TestRegistryHoldsOnlyJourneysInFlight drives journeys the way a traced
// simulator run does — never recycled, each completion starting the
// message's next segment — and requires the engine's journey registry
// to grow no larger than the peak number of journeys in flight and to
// reference no journey once the run drains.
func TestRegistryHoldsOnlyJourneysInFlight(t *testing.T) {
	var k des.Kernel
	e := NewEngine(&k)
	pool := make([]*Channel, 6)
	for i := range pool {
		pool[i] = e.NewChannel("p", 0.1+float64(i)*0.07)
	}
	routes := make([]*Route, 0, 15)
	for lo := range pool {
		for hi := lo + 1; hi < len(pool); hi++ {
			routes = append(routes, e.NewRoute(pool[lo:hi+1]))
		}
	}
	peak := 0
	var start func(n, segs int, at float64)
	start = func(n, segs int, at float64) {
		j := &Journey{Route: routes[n%len(routes)], Flits: 4 + n%13, OnComplete: func(j *Journey, ex []float64) {
			if segs > 1 {
				start(n*7+3, segs-1, ex[len(ex)-1])
			}
		}}
		e.Start(j, at)
		peak = max(peak, int(e.Started-e.Completed))
	}
	want := 0
	for m := 0; m < 200; m++ {
		start(m, 1+m%3, float64(m)*0.3)
		want += 1 + m%3
	}
	k.Run(nil)
	if e.Started != e.Completed || e.Started != uint64(want) {
		t.Fatalf("started %d, completed %d, want %d each", e.Started, e.Completed, want)
	}
	if len(e.journeys) > peak || peak >= want {
		t.Fatalf("registry has %d entries for a peak of %d journeys in flight (of %d)", len(e.journeys), peak, want)
	}
	for id, s := range e.journeys {
		if s.j != nil {
			t.Fatalf("registry entry %d still references a completed journey", id)
		}
	}
}
