// Package des is a minimal discrete-event simulation kernel: a simulation
// clock and a priority queue of timestamped events with deterministic
// FIFO tie-breaking for events scheduled at the same instant.
//
// The kernel is single-goroutine by design — network simulators of this
// kind are dominated by event ordering, and a sequential future-event
// list is both fastest and exactly reproducible. The list is a 4-ary
// min-heap of pointer-free keys; each pending event's handler and
// argument sit in a slab slot that is reused once the event fires, so
// steady-state scheduling allocates nothing, and the ScheduleCall
// variants take a shared handler plus a context argument so callers need
// not allocate closures either.
package des

import (
	"fmt"
	"math"
)

// Handler is the action executed when an event fires.
type Handler func()

// key orders one pending event by (time, seq) and names the slab slot
// holding its payload. It holds no pointers, so moving keys through the
// heap needs no write barriers and gives the garbage collector nothing
// to scan.
type key struct {
	time float64
	seq  uint64
	slot int
}

func (a *key) before(b *key) bool {
	return a.time < b.time || (a.time == b.time && a.seq < b.seq)
}

// payload is what a pending event runs: call(arg).
type payload struct {
	call func(any)
	arg  any
}

// runHandler is the shared call of every Schedule/ScheduleAt event: the
// Handler rides as the argument, and a func value boxes into an
// interface without allocating.
func runHandler(h any) { h.(Handler)() }

// Kernel owns the simulation clock and the future-event list. The zero
// value is ready to use.
//
// Events pop in (time, seq) order, where seq numbers schedule calls, so
// events at the same instant fire in the order they were scheduled. The
// order is total: a run's event sequence depends only on what was
// scheduled, never on the queue's layout. The three slices grow to the
// run's peak pending population and are reused from then on.
type Kernel struct {
	heap []key     // 4-ary min-heap: the children of i are 4i+1 … 4i+4
	slab []payload // pending events' payloads, indexed by key.slot
	free []int     // slab slots not holding a pending event

	now       float64
	seq       uint64
	processed uint64
}

// Now returns the current simulation time.
func (k *Kernel) Now() float64 { return k.now }

// Processed returns the number of events executed so far.
func (k *Kernel) Processed() uint64 { return k.processed }

// Pending returns the number of scheduled but unexecuted events.
func (k *Kernel) Pending() int { return len(k.heap) }

// Schedule runs fn after delay simulation-time units. Negative or NaN
// delays panic: they would break causality.
func (k *Kernel) Schedule(delay float64, fn Handler) {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("des: invalid delay %v", delay))
	}
	k.ScheduleAt(k.now+delay, fn)
}

// ScheduleAt runs fn at absolute simulation time t (>= Now).
func (k *Kernel) ScheduleAt(t float64, fn Handler) {
	var call func(any) // stays nil for a nil fn, which ScheduleCallAt rejects
	if fn != nil {
		call = runHandler
	}
	k.ScheduleCallAt(t, call, fn)
}

// ScheduleCall runs fn(arg) after delay simulation-time units. fn is
// typically a long-lived func value shared by every event of one kind,
// so the call allocates nothing beyond the event's queue slot.
func (k *Kernel) ScheduleCall(delay float64, fn func(any), arg any) {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("des: invalid delay %v", delay))
	}
	k.ScheduleCallAt(k.now+delay, fn, arg)
}

// ScheduleCallAt runs fn(arg) at absolute simulation time t (>= Now).
func (k *Kernel) ScheduleCallAt(t float64, fn func(any), arg any) {
	if t < k.now || math.IsNaN(t) {
		panic(fmt.Sprintf("des: scheduling into the past (t=%v, now=%v)", t, k.now))
	}
	if fn == nil {
		panic("des: nil handler")
	}
	var slot int
	if n := len(k.free); n > 0 {
		slot = k.free[n-1]
		k.free = k.free[:n-1]
		k.slab[slot] = payload{fn, arg}
	} else {
		slot = len(k.slab)
		k.slab = append(k.slab, payload{fn, arg})
	}
	k.seq++
	k.heap = append(k.heap, key{time: t, seq: k.seq, slot: slot})

	// Sift up.
	h := k.heap
	i := len(h) - 1
	e := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// pop removes and returns the earliest key.
func (k *Kernel) pop() key {
	n := len(k.heap) - 1
	top, e := k.heap[0], k.heap[n]
	k.heap = k.heap[:n] // same backing array: no pointer store
	if n == 0 {
		return top
	}
	h := k.heap

	// Sift the former last key down from the root.
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
	return top
}

// Step executes the next event. It reports false when no event is
// pending. The event's slot is cleared and freed before its handler
// runs, so a fired event keeps nothing alive and the handler's own
// scheduling can reuse the slot.
func (k *Kernel) Step() bool {
	if len(k.heap) == 0 {
		return false
	}
	top := k.pop()
	p := k.slab[top.slot]
	k.slab[top.slot] = payload{}
	k.free = append(k.free, top.slot)
	k.now = top.time
	k.processed++
	p.call(p.arg)
	return true
}

// Run executes events until none is pending or until stop (if non-nil)
// returns true, checked before each event. It returns the number of
// events executed by this call.
func (k *Kernel) Run(stop func() bool) uint64 {
	start := k.processed
	for len(k.heap) > 0 {
		if stop != nil && stop() {
			break
		}
		k.Step()
	}
	return k.processed - start
}

// RunUntil executes events with timestamps <= t, advancing the clock to t
// if no pending event remains at or before it.
func (k *Kernel) RunUntil(t float64) {
	for len(k.heap) > 0 && k.heap[0].time <= t {
		k.Step()
	}
	if k.now < t {
		k.now = t
	}
}
