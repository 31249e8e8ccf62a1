package service

import (
	"context"
	"fmt"
	"sync"
)

// flightGroup coalesces concurrent computations of the same canonical
// key. The first caller starts a flight: fn runs in its own goroutine
// under the flight's own context, and later callers with the same key
// join it and share its result. Every caller waits only as long as its
// own context lives, and the flight's context is cancelled when its
// last waiter leaves — so a computation stops once nobody waits for it,
// and never because one of several waiters went away. Unlike a cache,
// nothing is retained once the flight lands: the result cache in front
// of the group handles reuse across time; the group only collapses the
// concurrent window where a result is still being computed.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

// flight is one running computation. val and err are set before done
// closes; waiters is guarded by the group's mutex.
type flight struct {
	done    chan struct{}
	val     []byte
	err     error
	waiters int
	cancel  context.CancelFunc
}

// Join runs fn under key, or joins the flight already running it, and
// returns the payload, the error, and whether this caller shared
// another caller's flight instead of starting one. A caller whose ctx
// ends first gets ctx's error; a caller whose ctx is already done
// neither starts nor joins a flight.
func (g *flightGroup) Join(ctx context.Context, key string, fn func(context.Context) ([]byte, error)) (val []byte, err error, shared bool) {
	if err := ctx.Err(); err != nil {
		return nil, err, false
	}
	g.mu.Lock()
	f, shared := g.m[key]
	if !shared {
		if g.m == nil {
			g.m = make(map[string]*flight)
		}
		// The flight owns its goroutine: no caller's context governs it.
		fctx, cancel := context.WithCancel(context.Background())
		f = &flight{done: make(chan struct{}), cancel: cancel}
		g.m[key] = f
		go g.run(fctx, key, f, fn)
	}
	f.waiters++
	g.mu.Unlock()

	select {
	case <-f.done:
		return f.val, f.err, shared
	case <-ctx.Done():
		g.leave(key, f)
		return nil, ctx.Err(), shared
	}
}

// run computes the flight and lands it. The flight must land even if fn
// panics — otherwise its waiters would block until their own contexts
// end and the key would stay wedged — so the panic becomes the error
// every waiter gets (for the HTTP server a 500). The key is freed before
// done closes, so a caller that arrives after the result starts afresh.
func (g *flightGroup) run(ctx context.Context, key string, f *flight, fn func(context.Context) ([]byte, error)) {
	defer func() {
		if r := recover(); r != nil {
			f.err = fmt.Errorf("service: compute panicked: %v", r)
		}
		g.mu.Lock()
		if g.m[key] == f {
			delete(g.m, key)
		}
		g.mu.Unlock()
		f.cancel()
		close(f.done)
	}()
	f.val, f.err = fn(ctx)
}

// leave drops one waiter. The last one out cancels the flight and frees
// its key at once, so a later caller starts a fresh flight rather than
// joining one that is being torn down.
func (g *flightGroup) leave(key string, f *flight) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f.waiters--; f.waiters > 0 {
		return
	}
	f.cancel()
	if g.m[key] == f {
		delete(g.m, key)
	}
}

// Inflight reports how many distinct keys are currently being computed
// for at least one waiter.
func (g *flightGroup) Inflight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.m)
}
