// Package des is a minimal discrete-event simulation kernel: a simulation
// clock and a priority queue of timestamped events with deterministic
// FIFO tie-breaking for events scheduled at the same instant.
//
// The kernel is single-goroutine by design — network simulators of this
// kind are dominated by event ordering, and a sequential future-event
// list is both fastest and exactly reproducible. An event is a
// pointer-free key: its time, its sequence number and a ref, an integer
// that means something only to the kernel's owner. Every event fires
// through the one dispatch function the owner installs, which decodes
// the ref, so scheduling allocates nothing and the queue holds nothing
// the garbage collector must scan.
//
// The earliest pending key waits in a front slot ahead of a 4-ary
// min-heap. A simulation step typically pops one event and schedules a
// successor; when that successor precedes everything pending it takes
// the slot, and the next pop takes it back without touching the heap.
package des

import (
	"fmt"
	"math"
)

// key is one pending event: it fires at time, orders by (time, seq),
// and hands ref to the dispatch function.
type key struct {
	time float64
	seq  uint64
	ref  int
}

func (a *key) before(b *key) bool {
	return a.time < b.time || (a.time == b.time && a.seq < b.seq)
}

// Kernel owns the simulation clock and the future-event list. The zero
// value is ready to use once SetDispatch has installed the function that
// fires events.
//
// Events pop in (time, seq) order, where seq numbers schedule calls, so
// events at the same instant fire in the order they were scheduled. The
// order is total: a run's event sequence depends only on what was
// scheduled, never on the queue's layout. The heap grows to the run's
// peak pending population and is reused from then on.
type Kernel struct {
	// front, when full, is the earliest pending key: it precedes every
	// key in heap.
	front key
	full  bool
	heap  []key // 4-ary min-heap: the children of i are 4i+1 … 4i+4

	dispatch func(ref int)

	now       float64
	seq       uint64
	processed uint64
}

// SetDispatch installs fire as the function every event runs: an event
// scheduled with ref r calls fire(r) when it pops.
func (k *Kernel) SetDispatch(fire func(ref int)) { k.dispatch = fire }

// Now returns the current simulation time.
func (k *Kernel) Now() float64 { return k.now }

// Processed returns the number of events executed so far.
func (k *Kernel) Processed() uint64 { return k.processed }

// Pending returns the number of scheduled but unexecuted events.
func (k *Kernel) Pending() int {
	if k.full {
		return len(k.heap) + 1
	}
	return len(k.heap)
}

// After schedules ref to fire after delay simulation-time units.
// Negative or NaN delays panic: they would break causality.
func (k *Kernel) After(delay float64, ref int) {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("des: invalid delay %v", delay))
	}
	k.At(k.now+delay, ref)
}

// At schedules ref to fire at absolute simulation time t (>= Now).
func (k *Kernel) At(t float64, ref int) {
	if t < k.now || math.IsNaN(t) {
		panic(fmt.Sprintf("des: scheduling into the past (t=%v, now=%v)", t, k.now))
	}
	if k.dispatch == nil {
		panic("des: no dispatch installed")
	}
	k.seq++
	e := key{time: t, seq: k.seq, ref: ref}

	// The new key has the largest seq, so it precedes a pending key only
	// by being strictly earlier.
	switch {
	case k.full:
		if t < k.front.time {
			e, k.front = k.front, e
		}
	case len(k.heap) == 0 || t < k.heap[0].time:
		k.front, k.full = e, true
		return
	}

	// Sift up.
	k.heap = append(k.heap, e)
	h := k.heap
	i := len(h) - 1
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

// pop removes and returns the earliest key: the front slot's, else the
// heap's root.
func (k *Kernel) pop() key {
	if k.full {
		k.full = false
		return k.front
	}
	n := len(k.heap) - 1
	top, e := k.heap[0], k.heap[n]
	k.heap = k.heap[:n]
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
// pending.
func (k *Kernel) Step() bool {
	if !k.full && len(k.heap) == 0 {
		return false
	}
	top := k.pop()
	k.now = top.time
	k.processed++
	k.dispatch(top.ref)
	return true
}

// Run executes events until none is pending or until stop (if non-nil)
// returns true, checked before each event. It returns the number of
// events executed by this call.
func (k *Kernel) Run(stop func() bool) uint64 {
	start := k.processed
	for k.full || len(k.heap) > 0 {
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
	for {
		if k.full {
			if k.front.time > t {
				break
			}
		} else if len(k.heap) == 0 || k.heap[0].time > t {
			break
		}
		k.Step()
	}
	if k.now < t {
		k.now = t
	}
}
