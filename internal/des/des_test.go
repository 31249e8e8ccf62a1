package des

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// table is a test-side dispatch table: every scheduled action is a
// closure whose ref is its index in fns.
type table struct {
	k   Kernel
	fns []func()
}

func newTable() *table {
	t := &table{}
	t.k.SetDispatch(func(ref int) { t.fns[ref]() })
	return t
}

// at schedules fn at absolute time tm.
func (t *table) at(tm float64, fn func()) {
	t.fns = append(t.fns, fn)
	t.k.At(tm, len(t.fns)-1)
}

// after schedules fn after delay d.
func (t *table) after(d float64, fn func()) {
	t.fns = append(t.fns, fn)
	t.k.After(d, len(t.fns)-1)
}

// recorder returns a kernel whose dispatch appends each fired ref to
// *fired.
func recorder(fired *[]int) *Kernel {
	k := &Kernel{}
	k.SetDispatch(func(ref int) { *fired = append(*fired, ref) })
	return k
}

func TestEventsFireInTimeOrder(t *testing.T) {
	tb := newTable()
	var fired []float64
	times := []float64{5, 1, 3, 2, 4, 0.5, 2.5}
	for _, tm := range times {
		tb.at(tm, func() { fired = append(fired, tm) })
	}
	tb.k.Run(nil)
	if !sort.Float64sAreSorted(fired) {
		t.Fatalf("events fired out of order: %v", fired)
	}
	if len(fired) != len(times) {
		t.Fatalf("fired %d events, want %d", len(fired), len(times))
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	var order []int
	k := recorder(&order)
	for i := 0; i < 100; i++ {
		k.At(7, i)
	}
	k.Run(nil)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO at index %d: %v", i, order[:i+1])
		}
	}
}

func TestClockAdvances(t *testing.T) {
	var fired []int
	k := recorder(&fired)
	k.After(10, 0)
	k.After(20, 1)
	if k.Now() != 0 {
		t.Fatal("clock moved before Run")
	}
	k.Step()
	if k.Now() != 10 {
		t.Fatalf("clock = %v after first event, want 10", k.Now())
	}
	k.Step()
	if k.Now() != 20 {
		t.Fatalf("clock = %v after second event, want 20", k.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	tb := newTable()
	var trace []string
	tb.after(1, func() {
		trace = append(trace, "a")
		tb.after(1, func() { trace = append(trace, "c") })
		tb.after(0.5, func() { trace = append(trace, "b") })
	})
	tb.k.Run(nil)
	want := []string{"a", "b", "c"}
	for i := range want {
		if i >= len(trace) || trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestZeroDelayRunsNowNotBefore(t *testing.T) {
	tb := newTable()
	ran := false
	tb.after(5, func() {
		tb.after(0, func() { ran = true })
	})
	tb.k.Step()
	if ran {
		t.Fatal("zero-delay event ran synchronously inside parent handler")
	}
	tb.k.Step()
	if !ran || tb.k.Now() != 5 {
		t.Fatalf("zero-delay event: ran=%v now=%v", ran, tb.k.Now())
	}
}

func TestRunUntil(t *testing.T) {
	var fired []int
	k := recorder(&fired)
	for i := 1; i <= 10; i++ {
		k.At(float64(i), i)
	}
	k.RunUntil(5)
	if len(fired) != 5 {
		t.Fatalf("RunUntil(5) executed %d events, want 5", len(fired))
	}
	if k.Now() != 5 {
		t.Fatalf("Now() = %v, want 5", k.Now())
	}
	k.RunUntil(100)
	if len(fired) != 10 || k.Now() != 100 {
		t.Fatalf("after RunUntil(100): count=%d now=%v", len(fired), k.Now())
	}
}

func TestStopPredicate(t *testing.T) {
	var fired []int
	k := recorder(&fired)
	for i := 0; i < 100; i++ {
		k.After(float64(i), i)
	}
	n := k.Run(func() bool { return len(fired) >= 10 })
	if len(fired) != 10 || n != 10 {
		t.Fatalf("stop predicate: count=%d executed=%d, want 10", len(fired), n)
	}
	if k.Pending() != 90 {
		t.Fatalf("pending = %d, want 90", k.Pending())
	}
}

// TestFrontSlotChildPrecedesHeldKey: a handler's zero-delay child that
// precedes the key held in the front slot takes the slot and pushes the
// held key into the heap; a same-time child does not, so same-instant
// children still fire in schedule order.
func TestFrontSlotChildPrecedesHeldKey(t *testing.T) {
	tb := newTable()
	var order []string
	rec := func(s string) func() { return func() { order = append(order, s) } }
	tb.at(1, func() {
		order = append(order, "a")
		tb.after(2, rec("held")) // t=3: the slot, ahead of "late" at 5
		if !tb.k.full || tb.k.front.time != 3 {
			t.Fatalf("t=3 child did not take the empty slot")
		}
		tb.after(0, rec("zero")) // t=1: precedes the held key
		if !tb.k.full || tb.k.front.time != 1 || len(tb.k.heap) != 2 {
			t.Fatalf("zero-delay child: slot time %v full %v, heap %d keys", tb.k.front.time, tb.k.full, len(tb.k.heap))
		}
		tb.after(0, rec("zero2")) // same instant as the slot: later seq, heap
		if tb.k.front.time != 1 || len(tb.k.heap) != 3 {
			t.Fatalf("same-time child took the slot")
		}
	})
	tb.at(5, rec("late"))
	tb.k.Run(nil)
	want := []string{"a", "zero", "zero2", "held", "late"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestFrontSlotRunUntilCut: RunUntil stops at a key held in the front
// slot that lies past the cut, counts it as pending, and fires it on the
// next call.
func TestFrontSlotRunUntilCut(t *testing.T) {
	tb := newTable()
	var order []string
	tb.at(1, func() {
		order = append(order, "a")
		tb.at(3, func() { order = append(order, "c") }) // slot, ahead of "b"
	})
	tb.at(4, func() { order = append(order, "b") })
	tb.k.RunUntil(2)
	if len(order) != 1 || tb.k.Now() != 2 {
		t.Fatalf("RunUntil(2): fired %v, now %v", order, tb.k.Now())
	}
	if !tb.k.full || tb.k.front.time != 3 {
		t.Fatal("the t=3 key is not held in the slot at the cut")
	}
	if tb.k.Pending() != 2 {
		t.Fatalf("pending at the cut = %d, want 2 (slot + heap)", tb.k.Pending())
	}
	tb.k.RunUntil(3)
	if len(order) != 2 || order[1] != "c" || tb.k.Pending() != 1 {
		t.Fatalf("RunUntil(3): fired %v, pending %d", order, tb.k.Pending())
	}
	tb.k.Run(nil)
	if len(order) != 3 || order[2] != "b" || tb.k.Pending() != 0 {
		t.Fatalf("drain: fired %v, pending %d", order, tb.k.Pending())
	}
}

// TestPendingCountsFrontSlot: Pending counts the key held in the slot
// as well as the heap's.
func TestPendingCountsFrontSlot(t *testing.T) {
	var fired []int
	k := recorder(&fired)
	k.At(2, 0)
	if !k.full || len(k.heap) != 0 || k.Pending() != 1 {
		t.Fatalf("one key: slot %v, heap %d, Pending %d", k.full, len(k.heap), k.Pending())
	}
	k.At(1, 1) // earlier: takes the slot, pushes t=2 into the heap
	k.At(3, 2)
	if !k.full || len(k.heap) != 2 || k.Pending() != 3 {
		t.Fatalf("three keys: slot %v, heap %d, Pending %d", k.full, len(k.heap), k.Pending())
	}
	k.Step()
	if k.full || k.Pending() != 2 {
		t.Fatalf("after popping the slot: slot %v, Pending %d", k.full, k.Pending())
	}
	k.Run(nil)
	if k.Pending() != 0 || len(fired) != 3 || fired[0] != 1 || fired[1] != 0 || fired[2] != 2 {
		t.Fatalf("fired %v, pending %d", fired, k.Pending())
	}
}

func TestPanicsOnBadSchedules(t *testing.T) {
	nop := func(int) {}
	cases := []func(k *Kernel){
		func(k *Kernel) { k.SetDispatch(nop); k.After(-1, 0) },
		func(k *Kernel) { k.SetDispatch(nop); k.After(math.NaN(), 0) },
		func(k *Kernel) { k.At(5, 0) }, // no dispatch installed
		func(k *Kernel) {
			k.SetDispatch(nop)
			k.After(10, 0)
			k.Step()
			k.At(5, 1) // in the past
		},
	}
	for i, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			var k Kernel
			c(&k)
		}()
	}
}

func TestOrderingProperty(t *testing.T) {
	// Property: any batch of random non-negative timestamps is executed in
	// sorted order and the processed counter matches.
	f := func(raw []uint16) bool {
		var fired []int
		k := recorder(&fired)
		for i, r := range raw {
			k.At(float64(r)/7, i)
		}
		k.Run(nil)
		times := make([]float64, len(fired))
		for i, ref := range fired {
			times[i] = float64(raw[ref]) / 7
		}
		return sort.Float64sAreSorted(times) &&
			len(fired) == len(raw) &&
			k.Processed() == uint64(len(raw))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
