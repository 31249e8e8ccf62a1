package wormhole

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/ccnet/ccnet/internal/des"
	"github.com/ccnet/ccnet/internal/rng"
)

// closedShape is a journey that takes the closed-form schedule:
// single-flit buffers after channel 0, flit times that never decrease
// before the last channel, Flits ≥ len(times), no Avail, and the head's
// grant times. The head requests channel k+1 at a_k + s_k, so
// a_{k+1} = a_k + s_k + gaps[k] with every gap ≥ 0 (0: granted at once).
type closedShape struct {
	times  []float64 // s_k
	gaps   []float64 // wait for channel k+1 (the last entry is unused)
	depth0 int       // B_0, which never enters the recurrence
	flits  int
	at     float64 // a_0
}

// releaseAt is one tail release drained from the kernel.
type releaseAt struct {
	time float64
	ch   int
}

// fillSchedule prepares a journey of shape c on a fresh kernel, writes
// its grant times into Acquire and fills the rest of its schedule: with
// fillClosed at the last grant, or, on a copy of the route marked off
// the closed form, with settle at every grant a = 1…L. It returns the
// start cells as a function of (flit, channel), the exits and the
// releases in firing order.
func fillSchedule(t testing.TB, c closedShape, closed bool) (cell func(fl, k int) float64, exits []float64, rel []releaseAt) {
	t.Helper()
	var k des.Kernel
	e := NewEngine(&k)
	L, M := len(c.times), c.flits
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
	j := &Journey{Route: e.NewRoute(chans), Flits: M}
	if !j.closedForm() {
		t.Fatalf("L=%d M=%d B_0=%d times %v: journey does not take the closed form", L, M, c.depth0, c.times)
	}
	if !closed {
		ref := *j.Route
		ref.closed = false
		j.Route = &ref
	}
	j.prepare()
	a := c.at
	for i, s := range c.times {
		j.Acquire[i] = a
		a = a + s + c.gaps[i]
	}
	k.SetDispatch(func(ref int) { rel = append(rel, releaseAt{k.Now(), index[e.channels[ref>>refBits]]}) })
	if closed {
		j.acquired = L
		e.fillClosed(j)
		cell = func(fl, k int) float64 { return j.floats[fl+k] }
	} else {
		for j.acquired = 1; j.acquired <= L; j.acquired++ {
			e.settle(j)
		}
		cell = func(fl, k int) float64 { return j.floats[fl*L+k] }
	}
	k.Run(nil)
	return cell, j.exits, rel
}

// checkClosedForm requires the closed form to reproduce settle bit for
// bit: every start cell, read as T[j+k], every exit, and the
// (time, channel) release sequence.
func checkClosedForm(t testing.TB, c closedShape) {
	t.Helper()
	wantCell, wantExits, wantRel := fillSchedule(t, c, false)
	cell, exits, rel := fillSchedule(t, c, true)
	L, M := len(c.times), c.flits
	for fl := range M {
		for k := range L {
			if got, want := cell(fl, k), wantCell(fl, k); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("L=%d M=%d times %v: start(%d,%d) = %v, settle has %v", L, M, c.times, fl, k, got, want)
			}
		}
	}
	for i := range wantExits {
		if math.Float64bits(exits[i]) != math.Float64bits(wantExits[i]) {
			t.Fatalf("L=%d M=%d times %v: exit %d = %v, settle has %v", L, M, c.times, i, exits[i], wantExits[i])
		}
	}
	if len(rel) != len(wantRel) {
		t.Fatalf("L=%d M=%d: %d releases, settle has %d", L, M, len(rel), len(wantRel))
	}
	for i := range wantRel {
		if rel[i].ch != wantRel[i].ch || math.Float64bits(rel[i].time) != math.Float64bits(wantRel[i].time) {
			t.Fatalf("L=%d M=%d times %v: release %d = %+v, settle has %+v", L, M, c.times, i, rel[i], wantRel[i])
		}
	}
}

// TestClosedFormMatchesSettle covers L = 1…12 channels and M = L…64
// flits with equal flit times (ties everywhere), times drawn from a
// small set (ties between neighbours) or from a continuum, each with and
// without contended grants. The times before the last channel are
// sorted; the last is drawn freely, above or below them.
func TestClosedFormMatchesSettle(t *testing.T) {
	r := rng.New(24, 0x9e3779b9)
	shared := []float64{0.1, 0.25, 0.3, 0.5, 1}
	for L := 1; L <= 12; L++ {
		for _, M := range []int{L, L + 1, 16, 32, 64} {
			for v := range 5 {
				c := closedShape{times: make([]float64, L), gaps: make([]float64, L), depth0: 1 + r.IntN(40), flits: M, at: 4 * r.Float64()}
				for k := range c.times {
					switch v {
					case 0:
						c.times[k] = 0.5
					case 1, 3:
						c.times[k] = shared[r.IntN(len(shared))]
					default:
						c.times[k] = 0.05 + r.Float64()
					}
					if v > 2 && r.IntN(2) == 0 {
						c.gaps[k] = 3 * r.Float64()
					}
				}
				slices.Sort(c.times[:L-1])
				checkClosedForm(t, c)
			}
		}
	}
}

// TestClosedFormSelection: a route qualifies exactly when its buffers
// after channel 0 hold one flit and its flit times never decrease before
// the last channel, whatever channel 0's depth and the last channel's
// time; a journey over it takes the closed form when it also has at
// least as many flits as channels and no Avail. Each way out — a falling
// flit time, too few flits, a deeper buffer after channel 0, an Avail
// vector — sends the journey to settle.
func TestClosedFormSelection(t *testing.T) {
	var k des.Kernel
	e := NewEngine(&k)
	cases := []struct {
		name   string
		times  []float64
		depths []int
		flits  int
		avail  bool
		route  bool    // the route qualifies
		sigma  float64 // its σ, when it does
		want   bool    // the journey takes the closed form
	}{
		{"one channel", []float64{0.7}, []int{1}, 1, false, true, 0.7, true},
		{"M = L", []float64{0.5, 0.5, 0.5}, []int{1, 1, 1}, 3, false, true, 0.5, true},
		{"deep B_0, faster last", []float64{0.1, 0.3, 0.3, 0.2}, []int{8, 1, 1, 1}, 16, false, true, 0.3, true},
		{"slower last", []float64{0.1, 0.3, 0.9}, []int{1, 1, 1}, 16, false, true, 0.9, true},
		{"two channels, falling", []float64{0.9, 0.3}, []int{1, 1}, 16, false, true, 0.9, true},
		{"falling time", []float64{0.532, 0.522, 0.522, 0.3}, []int{1, 1, 1, 1}, 32, false, false, 0, false},
		{"M < L", []float64{0.5, 0.5, 0.5}, []int{1, 1, 1}, 2, false, true, 0.5, false},
		{"deep buffer after channel 0", []float64{0.5, 0.5, 0.5, 0.5}, []int{1, 2, 1, 1}, 16, false, false, 0, false},
		{"deep last buffer", []float64{0.5, 0.5, 0.5, 0.5}, []int{1, 1, 1, 4}, 16, false, false, 0, false},
		{"Avail", []float64{0.5, 0.5, 0.5}, []int{1, 1, 1}, 16, true, true, 0.5, false},
	}
	for _, c := range cases {
		chans := make([]*Channel, len(c.times))
		for i, s := range c.times {
			chans[i] = e.NewBufferedChannel("c", s, c.depths[i])
		}
		r := e.NewRoute(chans)
		if r.closed != c.route || c.route && r.sigma != c.sigma {
			t.Errorf("%s: route closed %v σ %v, want %v σ %v", c.name, r.closed, r.sigma, c.route, c.sigma)
		}
		j := &Journey{Route: r, Flits: c.flits}
		if c.avail {
			j.Avail = make([]float64, c.flits)
		}
		if got := j.closedForm(); got != c.want {
			t.Errorf("%s: closedForm = %v, want %v", c.name, got, c.want)
		}
		j.prepare()
		if n := len(j.floats); c.want && n != 2*c.flits+len(c.times)-1 || !c.want && n != (len(c.times)+1)*c.flits {
			t.Errorf("%s: %d schedule floats for L=%d M=%d", c.name, n, len(c.times), c.flits)
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

// decodeClosed turns fuzz bytes into a closed-form shape: L = 1…12,
// M = L…64, flit times partly from a small shared set (ties) and partly
// arbitrary, sorted before the last channel, grant gaps 0 or positive,
// and B_0 arbitrary.
func decodeClosed(data []byte) closedShape {
	b := fuzzBytes(data)
	L := 1 + int(b.next()%12)
	c := closedShape{
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
	slices.Sort(c.times[:L-1])
	return c
}

// FuzzClosedFormMatchesSettle checks the closed form against settle on
// decoded journeys: the same start cells, exits and releases, bit for bit.
func FuzzClosedFormMatchesSettle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 14, 0, 0, 0, 0, 4, 0, 0}) // a fast channel, then a slow one
	f.Add([]byte{9, 22, 7, 4, 200, 1, 2, 3, 4, 5, 6, 7, 8, 5, 170, 9, 9, 9, 9, 9, 9, 9, 9, 1, 0, 2, 0, 1})
	f.Add([]byte{11, 255, 1, 0, 1, 33, 2, 0, 3, 9, 4, 250, 1, 2, 3, 4, 5, 6, 7, 8, 17, 1, 255, 3, 255, 0, 13, 0, 0, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkClosedForm(t, decodeClosed(data))
	})
}
