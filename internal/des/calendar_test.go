package des

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refEvent / refHeap are the pre-calendar binary-heap scheduler, kept as
// the ordering oracle: the calendar queue must execute any schedule —
// ties, nested scheduling, RunUntil boundaries — in exactly the order
// the heap would.
type refEvent struct {
	time float64
	seq  uint64
	id   int
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// refRun replays one scripted schedule through the reference heap and
// returns the execution order.
func refRun(script []scriptedEvent) []int {
	var h refHeap
	var seq uint64
	now := 0.0
	var order []int
	push := func(e scriptedEvent, base float64) {
		seq++
		heap.Push(&h, refEvent{time: base + e.delay, seq: seq, id: e.id})
	}
	byID := make(map[int]scriptedEvent)
	for _, e := range script {
		byID[e.id] = e
		if e.parent < 0 {
			push(e, 0)
		}
	}
	for h.Len() > 0 {
		e := heap.Pop(&h).(refEvent)
		now = e.time
		order = append(order, e.id)
		for _, c := range script {
			if c.parent == e.id {
				push(c, now)
			}
		}
	}
	return order
}

// scriptedEvent is one event of a random schedule: top-level events
// (parent < 0) are scheduled up front at their delay; children are
// scheduled by their parent's handler at now+delay.
type scriptedEvent struct {
	id     int
	parent int
	delay  float64
}

// randomScript generates a schedule with heavy tie density (quantized
// delays) and nested scheduling.
func randomScript(r *rand.Rand, n int) []scriptedEvent {
	script := make([]scriptedEvent, n)
	for i := range script {
		parent := -1
		if i > 0 && r.Intn(3) == 0 {
			parent = r.Intn(i) // children reference earlier ids only
		}
		// Quantized delays force same-instant ties; occasional huge
		// delays exercise the sparse-calendar fallback.
		delay := float64(r.Intn(20)) * 0.5
		if r.Intn(16) == 0 {
			delay = float64(r.Intn(5)) * 1e6
		}
		script[i] = scriptedEvent{id: i, parent: parent, delay: delay}
	}
	return script
}

// TestCalendarMatchesHeapOrder drives random scripted schedules through
// the kernel and the reference heap and requires identical execution
// orders.
func TestCalendarMatchesHeapOrder(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(300)
		script := randomScript(r, n)
		want := refRun(script)

		tb := newTable()
		var got []int
		var schedule func(e scriptedEvent, at float64)
		schedule = func(e scriptedEvent, at float64) {
			tb.at(at, func() {
				got = append(got, e.id)
				for _, c := range script {
					if c.parent == e.id {
						schedule(c, tb.k.Now()+c.delay)
					}
				}
			})
		}
		for _, e := range script {
			if e.parent < 0 {
				schedule(e, e.delay)
			}
		}
		tb.k.Run(nil)

		if len(got) != len(want) {
			t.Fatalf("trial %d: executed %d events, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: order diverges at %d: got %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestCalendarRunUntilMatchesHeap checks the boundary semantics of
// RunUntil against the heap: events at exactly t fire, later ones stay.
func TestCalendarRunUntilMatchesHeap(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		times := make([]float64, 1+r.Intn(100))
		for i := range times {
			times[i] = float64(r.Intn(40)) * 0.25
		}
		cut := float64(r.Intn(10))

		var refs []int
		k := recorder(&refs)
		for i, tm := range times {
			k.At(tm, i)
		}
		k.RunUntil(cut)
		fired := len(refs)

		want := 0
		for _, tm := range times {
			if tm <= cut {
				want++
			}
		}
		if fired != want {
			t.Fatalf("trial %d: RunUntil(%v) fired %d, want %d", trial, cut, fired, want)
		}
		if k.Now() < cut {
			t.Fatalf("trial %d: Now() = %v after RunUntil(%v)", trial, k.Now(), cut)
		}
		if k.Pending() != len(times)-want {
			t.Fatalf("trial %d: pending %d, want %d", trial, k.Pending(), len(times)-want)
		}
	}
}

// TestDispatchReceivesRefs checks that the one dispatch function serves
// every event, each receiving its own ref, in (time, seq) order.
func TestDispatchReceivesRefs(t *testing.T) {
	var got []int
	k := recorder(&got)
	k.At(2, 20)
	k.At(1, 10)
	k.After(1, 11) // same instant as ref 10, later seq
	k.At(3, 30)
	k.Run(nil)
	want := []int{10, 11, 20, 30}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("dispatch order = %v, want %v", got, want)
		}
	}
	if k.Processed() != 4 || k.Now() != 3 {
		t.Fatalf("processed=%d now=%v", k.Processed(), k.Now())
	}
}

// TestCalendarResizeStress grows and drains the calendar through many
// resize cycles while checking global ordering.
func TestCalendarResizeStress(t *testing.T) {
	var k Kernel
	r := rand.New(rand.NewSource(3))
	last := -1.0
	count := 0
	var times []float64
	k.SetDispatch(func(ref int) {
		tm := times[ref]
		if tm < last {
			t.Fatalf("event at %v fired after %v", tm, last)
		}
		last = tm
		count++
	})
	// Alternate bulk loads and partial drains across several decades of
	// time scale to force width re-derivation.
	total := 0
	now := 0.0
	for round := 0; round < 20; round++ {
		scale := math10(round % 5)
		for i := 0; i < 300; i++ {
			tm := now + r.Float64()*scale
			times = append(times, tm)
			k.At(tm, len(times)-1)
			total++
		}
		for i := 0; i < 150; i++ {
			k.Step()
		}
		now = k.Now()
	}
	k.Run(nil)
	if count != total {
		t.Fatalf("fired %d of %d events", count, total)
	}
}

func math10(p int) float64 {
	out := 1.0
	for i := 0; i < p; i++ {
		out *= 10
	}
	return out
}
