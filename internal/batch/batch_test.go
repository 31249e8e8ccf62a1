package batch

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// setGOMAXPROCS sets GOMAXPROCS, and with it the helper budget, for
// the rest of t.
func setGOMAXPROCS(t *testing.T, procs int) {
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// raise lifts peak to c if c is higher.
func raise(peak *atomic.Int64, c int64) {
	for {
		p := peak.Load()
		if c <= p || peak.CompareAndSwap(p, c) {
			return
		}
	}
}

// TestRunEmitsInItemOrder proves deterministic delivery: work finishes
// in reverse order (index 0 is gated until every later index has
// completed), yet done sees 0, 1, 2, … regardless. Index 0 waits on the
// others, which the contract forbids work to do unless helpers are
// free, so the test sets GOMAXPROCS to n.
func TestRunEmitsInItemOrder(t *testing.T) {
	const n = 8
	setGOMAXPROCS(t, max(n, runtime.GOMAXPROCS(0)))
	var completed atomic.Int64
	release := make(chan struct{})
	var got []int
	err := Run(context.Background(), n, n, func(_, i int) {
		if i == 0 {
			<-release // block index 0 until the rest are done
		}
		if completed.Add(1) == n-1 && i != 0 {
			close(release)
		}
	}, func(i int) error {
		got = append(got, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("done saw %v, want %d indices", got, n)
	}
	for i, idx := range got {
		if idx != i {
			t.Fatalf("delivery order %v, want ascending indices", got)
		}
	}
}

// TestRunStreamsIncrementally proves done(0) runs before the last work
// call finishes: index 0 completes at once, the last index blocks until
// the first delivery has been observed.
func TestRunStreamsIncrementally(t *testing.T) {
	const n = 4
	firstDone := make(chan struct{})
	var lastRanAfterFirstDone atomic.Bool
	delivered := 0
	err := Run(context.Background(), n, 2, func(_, i int) {
		if i == n-1 {
			<-firstDone
			lastRanAfterFirstDone.Store(true)
		}
	}, func(int) error {
		if delivered == 0 {
			close(firstDone)
		}
		delivered++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !lastRanAfterFirstDone.Load() {
		t.Fatal("last index finished before the first delivery")
	}
	if delivered != n {
		t.Fatalf("delivered %d indices, want %d", delivered, n)
	}
}

// TestRunBoundsWorkers proves no more than workers calls run at once,
// even for many more indices, and that w stays in range.
func TestRunBoundsWorkers(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	var badW atomic.Int64
	err := Run(context.Background(), 24, workers, func(w, _ int) {
		if w < 0 || w >= workers {
			badW.Add(1)
		}
		raise(&peak, cur.Add(1))
		time.Sleep(200 * time.Microsecond)
		cur.Add(-1)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds %d workers", p, workers)
	}
	if badW.Load() != 0 {
		t.Fatalf("%d calls got a goroutine index outside [0, %d)", badW.Load(), workers)
	}
}

// TestRunSharesOneBudget proves nested fan-outs draw on one budget: at
// GOMAXPROCS 4 an outer Run over 8 indices, each running an inner Run
// over 64 short sleeps, has at most 4 leaf calls in flight, where Runs
// that each started GOMAXPROCS goroutines would have 16. Once it
// returns, the whole budget is free again.
func TestRunSharesOneBudget(t *testing.T) {
	const procs = 4
	setGOMAXPROCS(t, procs)
	var cur, peak atomic.Int64
	err := Run(context.Background(), 8, 0, func(_, _ int) {
		_ = Run(context.Background(), 64, 0, func(_, _ int) {
			raise(&peak, cur.Add(1))
			time.Sleep(50 * time.Microsecond)
			cur.Add(-1)
		}, nil)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > procs {
		t.Fatalf("%d leaf calls in flight at GOMAXPROCS %d", p, procs)
	}
	if h := helpers.Load(); h != 0 {
		t.Fatalf("%d helpers still held after Run returned", h)
	}
}

// TestRunCancellationStopsWork proves a canceled context stops the loop:
// done(0) cancels, and index 1 holds until it sees the cancel. With one
// worker Run runs serially, so index 1 never starts and only index 0
// runs; the contract allows one call in flight besides index 0 (a
// goroutine may have taken index 1 before the cancel), hence "at most
// 2", and indices 2…n−1 must never run.
func TestRunCancellationStopsWork(t *testing.T) {
	const n = 16
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var executed atomic.Int64
	delivered := 0
	err := Run(ctx, n, 1, func(_, i int) {
		executed.Add(1)
		if i == 1 {
			<-ctx.Done() // hold the call until the caller cancels
		}
	}, func(i int) error {
		delivered++
		if i == 0 {
			cancel() // the client walks away after the first result
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := executed.Load(); got < 1 || got > 2 {
		t.Fatalf("executed %d indices, want index 0 and at most the in-flight index 1", got)
	}
	if delivered != 1 {
		t.Fatalf("done ran %d times after the cancel, want only done(0)", delivered)
	}
}

// TestRunEmitErrorStopsPool proves a failed done (a streaming client
// hung up) stops the loop and is returned as is. done(1) cancels the
// context before it fails, as /v1/batch does, and work past index 1
// blocks until it sees that cancel, so no goroutine can race past
// delivery. The serial path runs indices 0 and 1 only. The parallel
// path hands out 0 and 1 plus at most one blocked index per goroutine:
// a released goroutine sees the cancel before it takes another.
func TestRunEmitErrorStopsPool(t *testing.T) {
	const n = 100000
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprint("workers=", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancelCause(context.Background())
			defer cancel(nil)
			var handedOut, maxIndex atomic.Int64
			boom := errors.New("client gone")
			err := Run(ctx, n, workers, func(_, i int) {
				handedOut.Add(1)
				raise(&maxIndex, int64(i))
				if i > 1 {
					<-ctx.Done()
				}
			}, func(i int) error {
				if i == 1 {
					cancel(boom)
					return boom // done(0) succeeded, done(1) fails
				}
				return nil
			})
			if err != boom {
				t.Fatalf("err = %v, want the done error itself", err)
			}
			limit := int64(2 + Workers(workers, n))
			if workers == 1 {
				limit = 2
			}
			if h, m := handedOut.Load(), maxIndex.Load(); h > limit || m >= limit {
				t.Fatalf("%d indices handed out (highest %d) after done failed, want at most %d (0…%d)",
					h, m, limit, limit-1)
			}
		})
	}
}

// TestRunSerialStartsNoGoroutine proves the one-goroutine path runs
// every call on the caller's goroutine.
func TestRunSerialStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	peak := 0
	err := Run(context.Background(), 50, 1, func(w, _ int) {
		if w != 0 {
			t.Errorf("serial call got w = %d", w)
		}
		peak = max(peak, runtime.NumGoroutine())
	}, func(int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if peak > before {
		t.Fatalf("%d goroutines during a serial run, %d before", peak, before)
	}
}

// TestRunProperties checks the loop's contract over seeded random
// shapes: n in [0, 300], workers in [−1, 9], jittered work, and either
// a full run, a cancel from a random work or done call, or a done error
// at a random index.
func TestRunProperties(t *testing.T) {
	const seed = 22
	r := rand.New(rand.NewPCG(seed, 1))
	var late atomic.Int64 // calls that started after their Run returned
	for trial := range 200 {
		n := r.IntN(301)
		workers := r.IntN(11) - 1
		nw := Workers(workers, n)
		mode := r.IntN(4) // 0, 1: full run; 2: cancel; 3: done error
		at := r.IntN(n + 1)
		inDone := r.IntN(2) == 0
		jitter := make([]int, n)
		for i := range jitter {
			jitter[i] = r.IntN(4)
		}
		shape := fmt.Sprintf("trial %d (seed %d): n=%d workers=%d mode=%d at=%d inDone=%v",
			trial, seed, n, workers, mode, at, inDone)

		ctx, cancel := context.WithCancelCause(context.Background())
		cause := fmt.Errorf("cancel at %d", at)
		stopErr := fmt.Errorf("done error at %d", at)
		var canceled atomic.Bool
		runs := make([]atomic.Int64, n)
		busy := make([]atomic.Bool, max(nw, 1))
		var badW, overlap, doneAfterStop, workAfterCancel atomic.Int64
		var order []int
		var returned atomic.Bool

		err := Run(ctx, n, workers, func(w, i int) {
			if returned.Load() {
				late.Add(1)
			}
			if canceled.Load() {
				workAfterCancel.Add(1)
			}
			if w < 0 || w >= max(nw, 1) {
				badW.Add(1)
			} else if !busy[w].CompareAndSwap(false, true) {
				overlap.Add(1)
			} else {
				defer busy[w].Store(false)
			}
			runs[i].Add(1)
			for range jitter[i] {
				runtime.Gosched()
			}
			if mode == 2 && !inDone && i == at {
				cancel(cause)
				canceled.Store(true)
			}
		}, func(i int) error {
			if returned.Load() {
				late.Add(1)
			}
			if inDone && canceled.Load() {
				doneAfterStop.Add(1)
			}
			order = append(order, i)
			if mode == 2 && inDone && i == at {
				cancel(cause)
				canceled.Store(true)
			}
			if mode == 3 && i == at {
				return stopErr
			}
			return nil
		})
		returned.Store(true)
		cancel(nil)

		if badW.Load() != 0 || overlap.Load() != 0 {
			t.Fatalf("%s: %d calls with w outside [0, %d), %d overlapping calls on one w",
				shape, badW.Load(), nw, overlap.Load())
		}
		for i := range runs {
			if c := runs[i].Load(); c > 1 {
				t.Fatalf("%s: index %d ran %d times", shape, i, c)
			}
		}
		for k, i := range order {
			if i != k {
				t.Fatalf("%s: done saw %v, want ascending from 0", shape, order)
			}
			if runs[i].Load() != 1 {
				t.Fatalf("%s: done(%d) before its work ran", shape, i)
			}
		}
		if doneAfterStop.Load() != 0 {
			t.Fatalf("%s: done called %d times after the loop stopped", shape, doneAfterStop.Load())
		}
		// canceled is set only after the cancel, so a goroutine that sees
		// it in a work call sees the cancel at its next index check: at
		// most one such call per goroutine.
		if c := workAfterCancel.Load(); c > int64(nw) {
			t.Fatalf("%s: %d work calls started after the cancel, want <= %d", shape, c, nw)
		}

		stopped := (mode == 2 && at < n) || (mode == 3 && at < n)
		switch {
		case !stopped:
			if err != nil {
				t.Fatalf("%s: err = %v on a full run", shape, err)
			}
			if len(order) != n {
				t.Fatalf("%s: done saw %d of %d indices", shape, len(order), n)
			}
			for i := range runs {
				if runs[i].Load() != 1 {
					t.Fatalf("%s: index %d never ran", shape, i)
				}
			}
		case mode == 2:
			if !errors.Is(err, cause) {
				t.Fatalf("%s: err = %v, want the cancel cause", shape, err)
			}
			if inDone && len(order) != at+1 {
				t.Fatalf("%s: done saw %v, want 0…%d", shape, order, at)
			}
		default:
			if err != stopErr {
				t.Fatalf("%s: err = %v, want the done error", shape, err)
			}
			if len(order) != at+1 {
				t.Fatalf("%s: done saw %v, want 0…%d", shape, order, at)
			}
		}
	}
	// A goroutine left running by any trial would start calls after its
	// Run returned; give stragglers a moment to show.
	time.Sleep(10 * time.Millisecond)
	if l := late.Load(); l != 0 {
		t.Fatalf("%d work or done calls started after Run returned", l)
	}
}
