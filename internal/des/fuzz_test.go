package des

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
)

// fuzzEvent is one event of a decoded script. Top-level events
// (parent < 0) are scheduled at time delay before the run starts, or at
// Now()+delay right after the RunUntil cut when late is set and the
// script has a cut; a child is scheduled by its parent's handler at
// Now()+delay. via picks the scheduling call.
type fuzzEvent struct {
	parent int
	delay  float64
	via    int // 0 At, 1 After
	late   bool
}

// fuzzScript is a decoded schedule plus an optional RunUntil cut.
type fuzzScript struct {
	events   []fuzzEvent
	children [][]int // children[i]: ids scheduled by event i, in id order
	hasCut   bool
	cut      float64
}

// decodeScript turns fuzz bytes into a script. Bit 0 of byte 0 asks for
// a RunUntil cut and its other bits give the cut time in half units;
// then every three bytes (flags, delay, parent) describe one event.
// Delays are drawn to force ties: zero, half-unit steps, multiples of
// 1e6 and +Inf.
func decodeScript(data []byte) fuzzScript {
	var s fuzzScript
	if len(data) == 0 {
		return s
	}
	s.hasCut = data[0]&1 == 1
	s.cut = float64(data[0]>>1) * 0.5
	data = data[1:]
	for len(data) >= 3 {
		flags, d, p := data[0], data[1], data[2]
		data = data[3:]
		i := len(s.events)
		e := fuzzEvent{parent: -1, via: int(flags & 1), late: flags&8 != 0}
		if flags&4 != 0 && i > 0 {
			e.parent = int(p) % i
		}
		switch {
		case d < 16:
			e.delay = 0
		case d < 200:
			e.delay = float64(d%20) * 0.5
		case d < 248:
			e.delay = float64(d%5) * 1e6
		default:
			e.delay = math.Inf(1)
		}
		s.events = append(s.events, e)
	}
	s.children = make([][]int, len(s.events))
	for i, e := range s.events {
		if e.parent >= 0 {
			s.children[e.parent] = append(s.children[e.parent], i)
		}
	}
	return s
}

// late reports whether top-level event e waits for the cut.
func (s *fuzzScript) late(e fuzzEvent) bool { return s.hasCut && e.late }

// run drives s through one queue: sched schedules event id at
// now()+its delay, runUntil and drain fire events.
func (s *fuzzScript) run(sched func(id int), runUntil func(float64), drain func()) {
	for i, e := range s.events {
		if e.parent < 0 && !s.late(e) {
			sched(i)
		}
	}
	if s.hasCut {
		runUntil(s.cut)
		for i, e := range s.events {
			if e.parent < 0 && s.late(e) {
				sched(i)
			}
		}
	}
	drain()
}

// oracleRun replays s through the container/heap reference and returns
// the firing order and the pending count at the cut.
func oracleRun(s fuzzScript) (order []int, atCut int) {
	var h refHeap
	var seq uint64
	now := 0.0
	sched := func(id int) {
		seq++
		heap.Push(&h, refEvent{time: now + s.events[id].delay, seq: seq, id: id})
	}
	fire := func() {
		e := heap.Pop(&h).(refEvent)
		now = e.time
		order = append(order, e.id)
		for _, c := range s.children[e.id] {
			sched(c)
		}
	}
	runUntil := func(t float64) {
		for h.Len() > 0 && h[0].time <= t {
			fire()
		}
		if now < t {
			now = t
		}
		atCut = h.Len()
	}
	s.run(sched, runUntil, func() {
		for h.Len() > 0 {
			fire()
		}
	})
	return order, atCut
}

// kernelRun replays s through a Kernel, scheduling each event with the
// call its script names and the event's id as its ref, and returns the
// firing order, the pending count at the cut and the peak pending
// count. After every schedule and every fired event it checks the
// queue's layout (checkLayout).
func kernelRun(t *testing.T, s fuzzScript) (k *Kernel, order []int, atCut, peak int) {
	t.Helper()
	k = &Kernel{}
	var sched func(id int)
	k.SetDispatch(func(id int) {
		checkLayout(t, k)
		order = append(order, id)
		for _, c := range s.children[id] {
			sched(c)
		}
	})
	sched = func(id int) {
		d := s.events[id].delay
		if s.events[id].via == 0 {
			k.At(k.Now()+d, id)
		} else {
			k.After(d, id)
		}
		checkLayout(t, k)
		peak = max(peak, k.Pending())
	}
	s.run(sched, func(t float64) {
		k.RunUntil(t)
		atCut = k.Pending()
	}, func() { k.Run(nil) })
	return k, order, atCut, peak
}

// checkLayout requires the queue's invariants: every heap key's parent
// precedes it, and a key held in the front slot precedes the heap's
// root, so the slot holds the earliest pending key.
func checkLayout(t *testing.T, k *Kernel) {
	t.Helper()
	for i := 1; i < len(k.heap); i++ {
		if p := (i - 1) / 4; k.heap[i].before(&k.heap[p]) {
			t.Fatalf("heap key %d (t=%v seq=%d) precedes its parent %d (t=%v seq=%d)",
				i, k.heap[i].time, k.heap[i].seq, p, k.heap[p].time, k.heap[p].seq)
		}
	}
	if k.full && len(k.heap) > 0 && !k.front.before(&k.heap[0]) {
		t.Fatalf("front slot (t=%v seq=%d) does not precede the heap root (t=%v seq=%d)",
			k.front.time, k.front.seq, k.heap[0].time, k.heap[0].seq)
	}
}

// checkScript requires the kernel to fire s exactly as the oracle does,
// with the queue's layout intact throughout, and to hold no key once
// drained.
func checkScript(t *testing.T, s fuzzScript) (peak int) {
	t.Helper()
	want, wantCut := oracleRun(s)
	k, got, gotCut, peak := kernelRun(t, s)
	if len(got) != len(want) {
		t.Fatalf("fired %d events, oracle fired %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order diverges at %d: got event %d, oracle %d", i, got[i], want[i])
		}
	}
	if s.hasCut && gotCut != wantCut {
		t.Fatalf("pending at RunUntil(%v) = %d, oracle %d", s.cut, gotCut, wantCut)
	}
	if k.Pending() != 0 || k.Processed() != uint64(len(want)) {
		t.Fatalf("after drain: pending %d, processed %d of %d", k.Pending(), k.Processed(), len(want))
	}
	if k.full || len(k.heap) != 0 {
		t.Fatalf("drained kernel holds keys: slot %v, heap %d", k.full, len(k.heap))
	}
	return peak
}

// FuzzKernelMatchesHeap decodes bytes into a schedule — both
// scheduling calls, tie-forcing delays, child events and an optional
// RunUntil cut followed by late top-level events — and requires the
// kernel to fire it in the container/heap oracle's order.
func FuzzKernelMatchesHeap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 4, 0, 0, 5, 20, 1})
	f.Add([]byte{9, 0, 30, 0, 1, 250, 0, 4, 210, 0, 8, 40, 0, 13, 0, 2, 7, 255, 3})
	f.Add([]byte{255, 1, 100, 0, 2, 199, 0, 6, 15, 0, 15, 230, 2, 12, 16, 1, 4, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkScript(t, decodeScript(data))
	})
}

// TestKernelMatchesHeapLargePopulation runs one deterministic script
// with more than 2,000 events pending at once, deeper than any fuzz
// input grows the heap.
func TestKernelMatchesHeapLargePopulation(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	data := []byte{2*40 + 1} // RunUntil(20), then the late events
	for i := 0; i < 3500; i++ {
		flags := byte(r.Intn(4))
		if r.Intn(4) == 0 {
			flags |= 4 // child
		} else if r.Intn(8) == 0 {
			flags |= 8 // late
		}
		data = append(data, flags, byte(r.Intn(256)), byte(r.Intn(256)))
	}
	if peak := checkScript(t, decodeScript(data)); peak < 2000 {
		t.Fatalf("peak pending %d, want at least 2000", peak)
	}
}
