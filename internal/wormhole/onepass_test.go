package wormhole

import (
	"fmt"
	"math"
	"testing"

	"github.com/ccnet/ccnet/internal/des"
	"github.com/ccnet/ccnet/internal/rng"
)

// onePassShape is a journey that takes the one-pass fill: single-flit
// buffers after channel 0, Flits ≥ len(times), and the head's grant
// times. The head requests channel k+1 at a_k + s_k, so
// a_{k+1} = a_k + s_k + gaps[k] with every gap ≥ 0 (0: granted at once).
type onePassShape struct {
	times  []float64 // s_k
	gaps   []float64 // wait for channel k+1 (the last entry is unused)
	depth0 int       // B_0, which never enters the recurrence
	flits  int
	at     float64   // a_0
	avail  []float64 // nil, or non-decreasing
}

// releaseAt is one tail release drained from the kernel.
type releaseAt struct {
	time float64
	ch   int
}

// fillSchedule prepares a journey of shape c on a fresh kernel, writes
// its grant times into row 0 and fills the rest of its schedule: with
// settle at every grant a = 1…L, or with fillOnePass at a = L. It
// returns the start matrix, the exits and the releases in firing order.
func fillSchedule(t testing.TB, c onePassShape, onePass bool) (start, exits []float64, rel []releaseAt) {
	t.Helper()
	var k des.Kernel
	e := NewEngine(&k)
	L := len(c.times)
	chans := make([]*Channel, L)
	index := make(map[*Channel]int, L)
	for i, s := range c.times {
		depth := 1
		if i == 0 {
			depth = c.depth0
		}
		chans[i] = e.NewBufferedChannel(fmt.Sprint("c", i), s, depth)
		index[chans[i]] = i
	}
	j := &Journey{Route: e.NewRoute(chans), Flits: c.flits, Avail: c.avail}
	j.prepare()
	if !j.onePass {
		t.Fatalf("L=%d M=%d B_0=%d: journey does not take the one-pass fill", L, c.flits, c.depth0)
	}
	a := c.at
	for i, s := range c.times {
		j.Acquire[i] = a
		a = a + s + c.gaps[i]
	}
	k.SetDispatch(func(ref int) { rel = append(rel, releaseAt{k.Now(), index[e.channels[ref>>refBits]]}) })
	if onePass {
		j.acquired = L
		e.fillOnePass(j)
	} else {
		j.ints = make([]int, 2*L) // settle's state, which prepare skips for one-pass journeys
		for j.acquired = 1; j.acquired <= L; j.acquired++ {
			e.settle(j)
		}
	}
	k.Run(nil)
	return j.floats[:L*c.flits], j.exits, rel
}

// checkOnePass requires fillOnePass to reproduce settle bit for bit:
// every start cell, every exit, and the (time, channel) release sequence.
func checkOnePass(t testing.TB, c onePassShape) {
	t.Helper()
	wantStart, wantExits, wantRel := fillSchedule(t, c, false)
	start, exits, rel := fillSchedule(t, c, true)
	L := len(c.times)
	for i := range wantStart {
		if math.Float64bits(start[i]) != math.Float64bits(wantStart[i]) {
			t.Fatalf("L=%d M=%d: start(%d,%d) = %v, settle has %v", L, c.flits, i/L, i%L, start[i], wantStart[i])
		}
	}
	for i := range wantExits {
		if math.Float64bits(exits[i]) != math.Float64bits(wantExits[i]) {
			t.Fatalf("L=%d M=%d: exit %d = %v, settle has %v", L, c.flits, i, exits[i], wantExits[i])
		}
	}
	if len(rel) != len(wantRel) {
		t.Fatalf("L=%d M=%d: %d releases, settle has %d", L, c.flits, len(rel), len(wantRel))
	}
	for i := range wantRel {
		if rel[i].ch != wantRel[i].ch || math.Float64bits(rel[i].time) != math.Float64bits(wantRel[i].time) {
			t.Fatalf("L=%d M=%d: release %d = %+v, settle has %+v", L, c.flits, i, rel[i], wantRel[i])
		}
	}
}

// TestOnePassMatchesSettle covers the journey shapes the simulator
// produces — L = 2…10 channels, M = 16 and 32 flits — with equal flit
// times (ties everywhere), drawn ones, contended grants, and Avail-fed
// messages whose flits arrive in bursts.
func TestOnePassMatchesSettle(t *testing.T) {
	r := rng.New(15, 0x9e3779b9)
	for L := 2; L <= 10; L++ {
		for _, M := range []int{16, 32} {
			for v := 0; v < 4; v++ {
				c := onePassShape{times: make([]float64, L), gaps: make([]float64, L), depth0: 1 + r.IntN(40), flits: M}
				for k := range c.times {
					c.times[k] = 0.5
					if v > 0 {
						c.times[k] = []float64{0.1, 0.3, 0.5, 1, 0.05 + r.Float64()}[r.IntN(5)]
					}
					if v > 1 && r.IntN(2) == 0 {
						c.gaps[k] = 3 * r.Float64()
					}
				}
				if v == 3 {
					c.at = r.Float64()
					c.avail = make([]float64, M)
					for i, ti := 0, c.at; i < M; i++ {
						c.avail[i] = ti
						if r.IntN(3) > 0 {
							ti += 2 * r.Float64()
						}
					}
				}
				checkOnePass(t, c)
			}
		}
	}
}

// TestOnePassSelection: prepare picks the one-pass fill exactly when no
// cell can settle before the last grant — single-flit buffers after
// channel 0, whatever channel 0's depth, and at least as many flits as
// channels.
func TestOnePassSelection(t *testing.T) {
	var k des.Kernel
	e := NewEngine(&k)
	path := func(depths ...int) []*Channel {
		chans := make([]*Channel, len(depths))
		for i, d := range depths {
			chans[i] = e.NewBufferedChannel("c", 0.5, d)
		}
		return chans
	}
	cases := []struct {
		chans []*Channel
		flits int
		want  bool
	}{
		{path(1), 1, true},
		{path(1, 1, 1), 3, true},
		{path(1, 1, 1), 2, false},
		{path(8, 1, 1, 1), 16, true},
		{path(1, 2, 1, 1), 16, false},
		{path(1, 1, 1, 4), 16, false},
	}
	for i, c := range cases {
		j := &Journey{Route: e.NewRoute(c.chans), Flits: c.flits}
		j.prepare()
		if j.onePass != c.want {
			t.Errorf("case %d: onePass = %v, want %v", i, j.onePass, c.want)
		}
	}
}

// fuzzBytes reads fuzz input; an exhausted input reads as zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

// unit returns a value in [1, 2) with an arbitrary 52-bit mantissa.
func (b *fuzzBytes) unit() float64 {
	var x uint64
	for range 8 {
		x = x<<8 | uint64(b.next())
	}
	return math.Float64frombits(0x3ff<<52 | x>>12)
}

// decodeOnePass turns fuzz bytes into a one-pass shape: L = 1…12,
// M = L…64, flit times partly from a small shared set (ties) and partly
// arbitrary, grant gaps 0 or positive, B_0 arbitrary, and Avail nil or
// non-decreasing with repeats.
func decodeOnePass(data []byte) onePassShape {
	b := fuzzBytes(data)
	L := 1 + int(b.next()%12)
	c := onePassShape{
		flits:  L + int(b.next())%(65-L),
		depth0: 1 + int(b.next()),
		at:     float64(b.next()) / 4,
		times:  make([]float64, L),
		gaps:   make([]float64, L),
	}
	shared := []float64{0.1, 0.25, 0.3, 0.5, 1}
	for k := range c.times {
		if f := b.next(); f < 160 {
			c.times[k] = shared[int(f)%len(shared)]
		} else {
			c.times[k] = b.unit() - 0.99
		}
		if g := b.next(); g&1 == 1 {
			c.gaps[k] = float64(g>>1) / 16 * b.unit()
		}
	}
	if b.next()&1 == 1 {
		c.avail = make([]float64, c.flits)
		ti := c.at - float64(b.next())/8
		for i := range c.avail {
			c.avail[i] = ti
			if g := b.next(); g&1 == 1 {
				ti += float64(g>>1) / 32 * b.unit()
			}
		}
	}
	return c
}

// FuzzSinglePassMatchesSettle checks fillOnePass against settle on
// decoded journeys: the same start cells, exits and releases, bit for bit.
func FuzzSinglePassMatchesSettle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 14, 0, 0, 0, 0, 4, 0, 0}) // a fast channel, then a slow one
	f.Add([]byte{9, 22, 7, 4, 200, 1, 2, 3, 4, 5, 6, 7, 8, 5, 170, 9, 9, 9, 9, 9, 9, 9, 9, 1, 0, 2, 0, 1})
	f.Add([]byte{11, 255, 1, 0, 1, 33, 2, 0, 3, 9, 4, 250, 1, 2, 3, 4, 5, 6, 7, 8, 17, 1, 255, 3, 255, 0, 13, 0, 0, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkOnePass(t, decodeOnePass(data))
	})
}
