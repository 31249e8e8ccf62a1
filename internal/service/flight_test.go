package service

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// Do joins key's flight under a context that never ends: the caller
// that never leaves, which the TestSingleflight* cases exercise.
func (g *flightGroup) Do(key string, fn func() ([]byte, error)) ([]byte, error, bool) {
	return g.Join(context.Background(), key, func(context.Context) ([]byte, error) { return fn() })
}

// waiting reports how many callers wait on the group's flights.
func (g *flightGroup) waiting() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, f := range g.m {
		n += f.waiters
	}
	return n
}

// until polls cond, yielding between polls, and fails the test if it
// does not hold within a generous deadline.
func until(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

type joined struct {
	val    []byte
	err    error
	shared bool
}

// join runs Join in a goroutine and delivers its answer on the channel.
func join(g *flightGroup, ctx context.Context, key string, fn func(context.Context) ([]byte, error)) <-chan joined {
	ch := make(chan joined, 1)
	go func() {
		v, err, shared := g.Join(ctx, key, fn)
		ch <- joined{v, err, shared}
	}()
	return ch
}

// gated returns a computation that hands its context to started, then
// blocks until release closes and returns "v" — or the context's error
// once that is done, so a cancelled flight is visible to its waiters.
func gated(started chan<- context.Context, release <-chan struct{}) func(context.Context) ([]byte, error) {
	return func(ctx context.Context) ([]byte, error) {
		started <- ctx
		select {
		case <-release:
			return []byte("v"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// TestFlightOwnerLeaves: the caller that started a flight leaves while
// another waits on it. The owner stops waiting at once; the flight is
// not cancelled and the remaining waiter gets its result.
func TestFlightOwnerLeaves(t *testing.T) {
	var g flightGroup
	started, release := make(chan context.Context, 1), make(chan struct{})
	ownerCtx, leave := context.WithCancel(context.Background())
	owner := join(&g, ownerCtx, "k", gated(started, release))
	fctx := <-started
	waiter := join(&g, context.Background(), "k", gated(started, release))
	until(t, "the second caller to join", func() bool { return g.waiting() == 2 })

	leave()
	if o := <-owner; !errors.Is(o.err, context.Canceled) || o.shared {
		t.Fatalf("owner got %+v, want its own context's error", o)
	}
	if fctx.Err() != nil {
		t.Fatal("the owner leaving cancelled a flight another caller waits on")
	}
	close(release)
	if w := <-waiter; w.err != nil || string(w.val) != "v" || !w.shared {
		t.Fatalf("waiter got %+v, want the shared result", w)
	}
}

// TestFlightWaiterLeavesEarly: a caller that joined a flight leaves
// before it lands. It stops waiting at once, and the flight goes on for
// the caller that started it.
func TestFlightWaiterLeavesEarly(t *testing.T) {
	var g flightGroup
	started, release := make(chan context.Context, 1), make(chan struct{})
	owner := join(&g, context.Background(), "k", gated(started, release))
	fctx := <-started
	waiterCtx, leave := context.WithCancel(context.Background())
	waiter := join(&g, waiterCtx, "k", gated(started, release))
	until(t, "the second caller to join", func() bool { return g.waiting() == 2 })

	leave()
	if w := <-waiter; !errors.Is(w.err, context.Canceled) || !w.shared {
		t.Fatalf("waiter got %+v, want its own context's error", w)
	}
	if fctx.Err() != nil {
		t.Fatal("a waiter leaving cancelled the flight")
	}
	if n := g.waiting(); n != 1 {
		t.Fatalf("%d waiters after one left, want 1", n)
	}
	close(release)
	if o := <-owner; o.err != nil || string(o.val) != "v" || o.shared {
		t.Fatalf("owner got %+v, want the result", o)
	}
}

// TestFlightLastWaiterCancels: when every caller has left, the flight's
// context is cancelled, the computation stops, and the key is free at
// once — the next caller starts a fresh flight instead of joining the
// one being torn down.
func TestFlightLastWaiterCancels(t *testing.T) {
	var g flightGroup
	started, never := make(chan context.Context, 1), make(chan struct{})
	ctx1, leave1 := context.WithCancel(context.Background())
	ctx2, leave2 := context.WithCancel(context.Background())
	first := join(&g, ctx1, "k", gated(started, never))
	fctx := <-started
	second := join(&g, ctx2, "k", gated(started, never))
	until(t, "the second caller to join", func() bool { return g.waiting() == 2 })

	leave1()
	<-first
	if fctx.Err() != nil {
		t.Fatal("flight cancelled while a caller still waits on it")
	}
	leave2()
	if s := <-second; !errors.Is(s.err, context.Canceled) {
		t.Fatalf("last waiter got %+v, want its own context's error", s)
	}
	if !errors.Is(fctx.Err(), context.Canceled) {
		t.Fatal("the last waiter left but the flight was not cancelled")
	}
	if n := g.Inflight(); n != 0 {
		t.Fatalf("%d flights in the group after the last waiter left, want 0", n)
	}
	v, err, shared := g.Join(context.Background(), "k", func(context.Context) ([]byte, error) { return []byte("fresh"), nil })
	if err != nil || string(v) != "fresh" || shared {
		t.Fatalf("next caller got %q, %v, shared %v; want a fresh flight", v, err, shared)
	}
}

// TestFlightDoneContextNeitherStartsNorJoins: a caller whose context is
// already done gets its error without starting a flight or joining the
// one in progress.
func TestFlightDoneContextNeitherStartsNorJoins(t *testing.T) {
	var g flightGroup
	done, cancel := context.WithCancel(context.Background())
	cancel()
	base := runtime.NumGoroutine()
	_, err, shared := g.Join(done, "idle", func(context.Context) ([]byte, error) { select {} })
	if !errors.Is(err, context.Canceled) || shared || g.Inflight() != 0 || runtime.NumGoroutine() > base {
		t.Fatalf("done caller on an idle key: err %v, shared %v, %d flights, %d goroutines (had %d)",
			err, shared, g.Inflight(), runtime.NumGoroutine(), base)
	}

	started, release := make(chan context.Context, 1), make(chan struct{})
	owner := join(&g, context.Background(), "k", gated(started, release))
	<-started
	if _, err, _ := g.Join(done, "k", gated(started, release)); !errors.Is(err, context.Canceled) {
		t.Fatalf("done caller on a running flight: err %v", err)
	}
	if n := g.waiting(); n != 1 {
		t.Fatalf("%d waiters after a done caller, want the owner alone", n)
	}
	close(release)
	if o := <-owner; o.err != nil || string(o.val) != "v" {
		t.Fatalf("owner got %+v", o)
	}
}

// TestFlightLeavesNoGoroutine: flights that land, flights whose waiters
// all leave, and panicking flights all end their goroutines.
func TestFlightLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	var g flightGroup
	for i := 0; i < 20; i++ {
		g.Join(context.Background(), "landed", func(context.Context) ([]byte, error) { return nil, nil })
		g.Join(context.Background(), "panicked", func(context.Context) ([]byte, error) { panic("boom") })

		started := make(chan context.Context, 1)
		ctx, leave := context.WithCancel(context.Background())
		abandoned := join(&g, ctx, "abandoned", gated(started, nil))
		<-started
		leave()
		<-abandoned
	}
	until(t, "every flight goroutine to end", func() bool { return runtime.NumGoroutine() <= base })
	if n := g.Inflight(); n != 0 {
		t.Fatalf("%d flights left in the group", n)
	}
}
