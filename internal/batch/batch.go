// Package batch is the repository's one parallel loop: an indexed
// fan-out over a bounded number of goroutines, with optional delivery
// of the finished indices in index order on the caller's goroutine.
// Every parallel site calls it — λ sweeps, campaign simulation jobs,
// performability and fleet states, optimizer candidates and annealing
// chains, and /v1/batch items — so how work is spread over the CPUs is
// decided in this one place: every goroutine a Run starts beyond its
// first is a helper drawn from one process-wide budget of
// GOMAXPROCS−1, so nested and concurrent fan-outs share the CPUs
// instead of multiplying their goroutines.
package batch

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns the most goroutines Run starts for n indices:
// workers, or GOMAXPROCS when workers <= 0, clamped to n. Callers size
// per-goroutine scratch with it.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, n)
}

// helpers counts the goroutines all Runs hold beyond their first.
var helpers atomic.Int64

// takeHelpers takes up to want helpers from the budget, as many as are
// free, without waiting. GOMAXPROCS is read on every call: it can
// change while the process runs.
func takeHelpers(want int) int {
	limit := int64(runtime.GOMAXPROCS(0) - 1)
	for {
		held := helpers.Load()
		got := min(int64(want), limit-held)
		if got <= 0 {
			return 0
		}
		if helpers.CompareAndSwap(held, held+got) {
			return int(got)
		}
	}
}

// Run calls work(w, i) for every i in [0, n) on at most
// Workers(workers, n) goroutines: one, plus as many helpers as the
// process-wide budget has free when Run starts, never waiting for one.
// w in [0, Workers(workers, n)) names the goroutine: two calls with the
// same w never overlap, so w can index per-goroutine scratch. work must
// not wait on another index's work: with no helper free, every index
// runs in turn on one goroutine.
//
// When done is non-nil, Run calls it on the caller's goroutine for
// i = 0, 1, 2, …, each as soon as work has returned for every index up
// to i, so results stored by work can be absorbed in index order while
// later indices are still running.
//
// When ctx is done or done returns an error, Run stops handing out
// indices and calling done and waits for the work calls still running.
// It returns done's error, else ctx's cause once ctx is done, else nil.
// With a single goroutine everything runs on the caller's goroutine.
func Run(ctx context.Context, n, workers int, work func(w, i int), done func(i int) error) error {
	nw := 1
	if want := Workers(workers, n) - 1; want > 0 {
		nw += takeHelpers(want)
	}
	if nw <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			work(0, i)
			if done != nil && ctx.Err() == nil {
				if err := done(i); err != nil {
					return err
				}
			}
		}
		return context.Cause(ctx)
	}

	l := &loop{ctx: ctx, n: n, work: work}
	if done != nil {
		l.finished = make(chan int, n)
	}
	l.wg.Add(nw)
	for w := range nw {
		go l.run(w)
	}
	err := l.deliver(done)
	if err != nil {
		l.stop.Store(true)
	}
	l.wg.Wait()
	if err != nil {
		return err
	}
	return context.Cause(ctx)
}

// loop is one parallel Run's shared state, held in a single allocation.
type loop struct {
	ctx  context.Context
	n    int
	work func(w, i int)
	next atomic.Int64 // next index to hand out
	stop atomic.Bool  // done failed
	wg   sync.WaitGroup
	// finished receives each index once its work has returned; nil when
	// nothing is delivered. Its buffer holds all n, so no send blocks.
	finished chan int
}

// run is goroutine w: it takes indices until they run out, ctx is done
// or delivery has failed. A helper (w >= 1) goes back to the budget
// before wg.Done, so a Run that follows this one finds it free.
func (l *loop) run(w int) {
	defer l.wg.Done()
	if w > 0 {
		defer helpers.Add(-1)
	}
	for !l.stop.Load() && l.ctx.Err() == nil {
		i := int(l.next.Add(1)) - 1
		if i >= l.n {
			return
		}
		l.work(w, i)
		if l.finished != nil {
			l.finished <- i
		}
	}
}

// deliver calls done in index order as finished indices arrive, marking
// them in a bitmap until the next index in order is ready. It returns
// done's first error, or nil once every index is delivered or ctx is
// done.
func (l *loop) deliver(done func(i int) error) error {
	if done == nil {
		return nil
	}
	ready := make([]uint64, (l.n+63)/64)
	for next := 0; next < l.n; {
		select {
		case i := <-l.finished:
			ready[i/64] |= 1 << (i % 64)
		case <-l.ctx.Done():
			return nil
		}
		for ; next < l.n && ready[next/64]&(1<<(next%64)) != 0; next++ {
			if l.ctx.Err() != nil {
				return nil
			}
			if err := done(next); err != nil {
				return err
			}
		}
	}
	return nil
}
