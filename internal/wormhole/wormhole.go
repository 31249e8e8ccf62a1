// Package wormhole simulates wormhole flow control at channel granularity
// with exact flit timing, matching the paper's switch model: input-buffered
// switches, a single flit buffer per channel (generalized to configurable
// depth), and FIFO arbitration.
//
// A message traverses a Journey — an ordered sequence of Channels. Its
// head flit acquires channels one by one (waiting FIFO when a channel is
// held by another message); body flits follow in pipeline, each constrained
// by the input buffering of the next stage. Rather than simulating every
// flit as an event, the engine solves the exact flit recurrence: with a_k
// the (event-driven, contention-dependent) acquisition time of channel k,
// s_k its per-flit time, and B_k the flit capacity of the buffer feeding
// channel k,
//
//	start(0,k) = a_k                                          head
//	start(j,k) = max( d(j,k−1) or Avail[j] for k=0,           arrival
//	                  d(j−1,k),                               link serializes
//	                  start(j−B_{k+1}, k+1) )                 buffer space
//	d(j,k)     = start(j,k) + s_k
//
// Channel k is released when the tail crosses it, at d(M−1,k); the message
// is delivered at d(M−1,L−1). A release is scheduled at the acquisition
// that makes it causally known, which can precede later head acquisitions
// (short messages, deep buffers). Which cells are known once the head holds
// channels 0…a−1 has a closed form: row j of column k waits on row
// j−B_{k+1} of column k+1, and columns a… have no rows yet, so column k
// has settled
//
//	u_{a−1} = min(M, B_a)  (M once a = L),    u_k = min(M, u_{k+1} + B_{k+1})
//
// rows. Since every B ≥ 1, u never grows with k, so the arrival term never
// binds first. While u_0 < M no tail crossing is known and an acquisition
// computes nothing. Otherwise it fills the newly settled cells in one
// row-major pass — each cell depends only on earlier rows and on the cell
// to its left — then schedules the releases of the columns whose tail row
// it reached, in channel order.
//
// This frontier fill, settle, serves every journey but the paper's.
// When the channels after the first have one-flit buffers, their flit
// times s_0 … s_{L−2} never decrease, and a message of M ≥ L flits has
// no Avail, each anti-diagonal j+k = d of the schedule starts at one
// time: start(j,k) = T[j+k], with T[d] = a_d for d < L and
// T[d] = T[d−1] + σ after, σ = max(s_{L−2}, s_{L−1}) (s_0 when L = 1).
// On a diagonal the buffer term start(j−1,k+1) is never below the link
// term or the arrival term (the head requests channel d at
// a_{d−1} + s_{d−1}, s does not fall before L−1, σ bounds every s_k),
// and in the last column both remaining terms add to T[d−1], so their
// max rounds to T[d−1] + σ. Such a journey settles nothing before its
// last grant, which writes T, the exits T[j+L−1] + s_{L−1} and the
// releases T[M−1+k] + s_k: the sums settle forms, bit for bit, in M+L−1
// values instead of M·L.
//
// The engine reproduces the defining wormhole behaviours: the pipeline
// streams at the rate of the slowest held channel, and a blocked head
// stalls its body flits in place, holding every upstream channel whose
// buffers cannot absorb them; with B ≥ message length the behaviour
// becomes virtual cut-through.
//
// Journeys may be chained through store-and-forward points (the paper's
// concentrator/dispatcher buffers) by feeding one journey's per-flit exit
// times into the next journey's Avail vector.
//
// The engine owns its kernel's dispatch. Every event it schedules is a
// plain integer ref: a head request names its journey by an id the
// journey holds while in flight (a completed journey gives it back, so
// journeys nobody recycles are not kept alive), a tail release names its
// channel by the id AddChannels gave it, and one caller event kind, Post,
// hands an integer to OnPost. A path is compiled once into a Route that
// every journey over it shares: each channel's flit time, buffer depth
// and release ref, and whether the closed form can apply, so starting a
// journey copies and checks nothing per channel.
package wormhole

import (
	"fmt"
	"math"

	"github.com/ccnet/ccnet/internal/des"
)

// Event refs: the low refBits bits name the kind, the rest the journey
// id (refRequest), channel id (refRelease) or Post argument (refPost).
const (
	refRequest = iota
	refRelease
	refPost

	refBits = 2
	refMask = 1<<refBits - 1
)

// Channel is a unidirectional link (or gateway port) that one message
// holds at a time.
type Channel struct {
	Name     string  // diagnostic label
	FlitTime float64 // s_k: time to move one flit across this channel

	// BufferDepth is the number of flit slots in the input buffer feeding
	// this channel: a flit may start crossing the *previous* channel only
	// once the flit BufferDepth positions ahead of it has started
	// crossing this one. The paper's assumption 6 is depth 1 (pure
	// wormhole); depths ≥ message length give virtual-cut-through
	// behaviour. NewChannel sets 1.
	BufferDepth int

	id      int // index in the engine's channel registry
	busy    bool
	waiters fifo

	// Statistics.
	Acquisitions uint64  // messages that have held the channel
	BusyTime     float64 // total held time (updated on release)
	MaxQueue     int     // peak number of waiting messages
	lastAcquire  float64
}

// Utilization returns the fraction of [0,now] the channel was held.
func (c *Channel) Utilization(now float64) float64 {
	if now <= 0 {
		return 0
	}
	b := c.BusyTime
	if c.busy {
		b += now - c.lastAcquire
	}
	return b / now
}

// Route is a channel path compiled by Engine.NewRoute. It is read-only
// and shared by every journey that takes the path.
type Route struct {
	Channels []*Channel

	// hops holds, per channel, what the fill and the releases read: s_k,
	// B_k and the release ref, copied at compile time.
	hops []hop

	// closed is set when every channel after the first has a one-flit
	// buffer and s_0 … s_{L−2} never decrease: a journey of at least L
	// flits with no Avail then takes the closed-form schedule, whose
	// diagonals past the head's advance by sigma = max(s_{L−2}, s_{L−1})
	// (s_0 when L = 1).
	closed bool
	sigma  float64
}

type hop struct {
	s   float64 // flit time
	b   int     // buffer depth
	rel int     // release event ref
}

// Journey is one wormhole traversal of a compiled route by a message of
// Flits flits.
type Journey struct {
	Route *Route
	Flits int

	// Avail[j], when non-nil, is the earliest time flit j can enter
	// Channels[0] (it is still arriving from an upstream journey). A nil
	// Avail means the whole message is ready at start time.
	Avail []float64

	// OnComplete, if non-nil, is invoked once the head has acquired the
	// full path and the flit recurrence has been resolved. exits[j] is the
	// time flit j fully crosses the last channel; exits[Flits−1] is the
	// delivery time. It is called at the simulation instant of the last
	// acquisition, which always precedes every exit time.
	OnComplete func(j *Journey, exits []float64)

	// Tag is caller data carried with the journey, typically read back
	// in OnComplete so one shared handler can serve every journey. The
	// engine never reads it; Recycle clears it.
	Tag any

	// Acquire[k], filled in by the engine, is the time the head acquired
	// Route.Channels[k]: row 0 of the start matrix. Exposed for latency
	// decomposition in tests and stats.
	Acquire []float64

	id       int // registry index from Start to the last grant
	idx      int // next channel index to acquire
	acquired int // channels acquired so far

	// Flit-schedule state, allocated at the first grant and reusable
	// through Engine.Recycle. For settle, floats holds the start(j,k)
	// matrix row-major (start[j·L+k], so Acquire is its first row), then
	// exits, and ints the settled row count of each column, then the
	// frontier u_k of the current grant. A closed-form journey's floats
	// hold the diagonal times T (Acquire is T[0…L−1]), then exits.
	floats   []float64 // start (L·M) or T (M+L−1) | exits (M)
	ints     []int     // settled (L) | frontier (L)
	exits    []float64 // d(j, L−1), a view into floats
	prepared bool
}

// Engine drives journeys over an event kernel whose dispatch it owns.
type Engine struct {
	K *des.Kernel

	// Started and Completed count journeys, for conservation checks.
	Started, Completed uint64

	// OnPost receives the argument of every event scheduled with Post.
	OnPost func(arg int)

	// journeys is the registry of journeys in flight, indexed by the id
	// their head requests carry. A free entry links the next free one.
	journeys []idSlot
	freeID   int // 1 + the first free journeys index; 0 when none is

	channels []*Channel // indexed by the id their releases carry
	free     []*Journey // Recycle freelist

	// Route storage: NewRoute carves each route from these chunks.
	routes slab[Route]
	paths  slab[*Channel]
	hops   slab[hop]
}

type idSlot struct {
	j    *Journey
	next int // while free: 1 + the next free index, 0 at the end
}

// NewEngine returns an Engine bound to kernel k, and installs the
// engine's dispatch on k: every event k fires goes through the engine.
func NewEngine(k *des.Kernel) *Engine {
	e := &Engine{K: k}
	k.SetDispatch(e.fire)
	return e
}

// fire dispatches one event ref.
func (e *Engine) fire(ref int) {
	id := ref >> refBits
	switch ref & refMask {
	case refRequest:
		e.request(e.journeys[id].j)
	case refRelease:
		e.release(e.channels[id])
	default:
		e.OnPost(id)
	}
}

// Post schedules a caller event at absolute time t: when it fires, the
// engine calls OnPost(arg). arg may be any int whose shift left by two
// bits does not overflow.
func (e *Engine) Post(t float64, arg int) {
	if e.OnPost == nil {
		panic("wormhole: Post with no OnPost handler")
	}
	e.K.At(t, arg<<refBits|refPost)
}

// NewJourney returns a zeroed Journey, reusing recurrence buffers from a
// recycled one when available.
func (e *Engine) NewJourney() *Journey {
	if n := len(e.free); n > 0 {
		j := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return j
	}
	return &Journey{}
}

// Recycle returns a completed journey's buffers to the engine for reuse
// by a later NewJourney. The caller must be done with the journey and
// every slice the engine filled in (Acquire, the exits passed to
// OnComplete): they are views into buffers the next journey overwrites.
// Safe to call from within the journey's own OnComplete.
func (e *Engine) Recycle(j *Journey) {
	if j == nil {
		return
	}
	floats, ints := j.floats, j.ints
	*j = Journey{}
	j.floats, j.ints = floats, ints
	e.free = append(e.free, j)
}

// NewChannel creates a channel with the given per-flit time and the
// paper's single-flit input buffer.
func (e *Engine) NewChannel(name string, flitTime float64) *Channel {
	return e.NewBufferedChannel(name, flitTime, 1)
}

// NewBufferedChannel creates a channel whose input buffer holds depth
// flits (depth >= 1).
func (e *Engine) NewBufferedChannel(name string, flitTime float64, depth int) *Channel {
	ch := []Channel{{Name: name, FlitTime: flitTime, BufferDepth: depth}}
	e.AddChannels(ch)
	return &ch[0]
}

// AddChannels registers every channel of chs with the engine, which
// names a channel by its registry index in its release events. Each
// needs a finite positive FlitTime and a BufferDepth of at least 1. A
// caller building many channels keeps them in one slice: one allocation
// for all of them.
func (e *Engine) AddChannels(chs []Channel) {
	for i := range chs {
		c := &chs[i]
		if c.FlitTime <= 0 || math.IsNaN(c.FlitTime) || math.IsInf(c.FlitTime, 0) {
			panic(fmt.Sprintf("wormhole: invalid flit time %v for %s", c.FlitTime, c.Name))
		}
		if c.BufferDepth < 1 {
			panic(fmt.Sprintf("wormhole: invalid buffer depth %d for %s", c.BufferDepth, c.Name))
		}
		c.id = len(e.channels)
		e.channels = append(e.channels, c)
	}
}

// NewRoute compiles the path chans, whose channels must belong to e:
// it copies the slice, each channel's flit time and buffer depth
// (checked, as at least 1) and release ref, and decides whether the
// closed-form schedule can apply. The route reads no channel field
// again, so change a channel's FlitTime or BufferDepth only before
// compiling a route over it.
func (e *Engine) NewRoute(chans []*Channel) *Route {
	if len(chans) == 0 {
		panic("wormhole: route with no channels")
	}
	r := &e.routes.take(1)[0]
	r.Channels = e.paths.take(len(chans))
	copy(r.Channels, chans)
	r.hops = e.hops.take(len(chans))
	L := len(chans)
	r.closed = true
	for k, c := range chans {
		if c.id >= len(e.channels) || e.channels[c.id] != c {
			panic(fmt.Sprintf("wormhole: channel %s does not belong to this engine", c.Name))
		}
		if c.BufferDepth < 1 {
			panic(fmt.Sprintf("wormhole: channel %s has buffer depth %d", c.Name, c.BufferDepth))
		}
		r.hops[k] = hop{s: c.FlitTime, b: c.BufferDepth, rel: c.id<<refBits | refRelease}
		// B_0 never enters the recurrence, and s_{L−1} only through σ.
		if k > 0 && (c.BufferDepth != 1 || k < L-1 && c.FlitTime < r.hops[k-1].s) {
			r.closed = false
		}
	}
	r.sigma = r.hops[L-1].s
	if L > 1 {
		r.sigma = max(r.hops[L-2].s, r.sigma)
	}
	return r
}

// slab hands out views into chunks that double from 16 entries up to
// 4096, so a run's routes cost a few allocations in all, and a fresh
// engine compiling one route a few small ones.
type slab[T any] struct {
	free  []T
	chunk int
}

func (s *slab[T]) take(n int) []T {
	if len(s.free) < n {
		s.chunk = min(max(2*s.chunk, 16), 4096)
		s.free = make([]T, max(n, s.chunk))
	}
	v := s.free[:n:n]
	s.free = s.free[n:]
	return v
}

// Start schedules journey j to begin requesting its first channel at
// absolute time at.
func (e *Engine) Start(j *Journey, at float64) {
	if j.Route == nil {
		panic("wormhole: journey with no route")
	}
	if j.Flits <= 0 {
		panic(fmt.Sprintf("wormhole: journey with %d flits", j.Flits))
	}
	if j.Avail != nil && len(j.Avail) != j.Flits {
		panic(fmt.Sprintf("wormhole: Avail has %d entries for %d flits", len(j.Avail), j.Flits))
	}
	j.idx = 0
	j.acquired = 0
	j.prepared = false
	if e.freeID > 0 {
		j.id = e.freeID - 1
		e.freeID = e.journeys[j.id].next
		e.journeys[j.id] = idSlot{j: j}
	} else {
		j.id = len(e.journeys)
		e.journeys = append(e.journeys, idSlot{j: j})
	}
	e.Started++
	e.K.At(at, j.id<<refBits|refRequest)
}

// request tries to acquire j's next channel, queueing FIFO if held.
func (e *Engine) request(j *Journey) {
	ch := j.Route.Channels[j.idx]
	if ch.busy || ch.waiters.len() > 0 {
		ch.waiters.push(j)
		if n := ch.waiters.len(); n > ch.MaxQueue {
			ch.MaxQueue = n
		}
		return
	}
	e.grant(ch, j)
}

func (e *Engine) grant(ch *Channel, j *Journey) {
	if ch.busy {
		panic("wormhole: granting a busy channel")
	}
	now := e.K.Now()
	ch.busy = true
	ch.lastAcquire = now
	ch.Acquisitions++

	if !j.prepared {
		// Allocated on first grant, not Start: journeys queued at their
		// first channel (the source queue) cost no schedule state.
		j.prepare()
	}
	j.Acquire[j.idx] = now
	j.acquired++

	last := j.acquired == len(j.Route.Channels)
	if !last {
		j.idx++
		// The head flit reaches the next switch after one flit time.
		e.K.After(ch.FlitTime, j.id<<refBits|refRequest)
	}
	switch {
	case !j.closedForm():
		e.settle(j)
	case last:
		e.fillClosed(j)
	}
	if last {
		// No event names the journey any more: give its id back.
		e.journeys[j.id] = idSlot{next: e.freeID}
		e.freeID = j.id + 1
		e.Completed++
		if j.OnComplete != nil {
			j.OnComplete(j, j.exits)
		}
	}
}

// closedForm reports whether j's schedule takes the closed form: its
// route qualifies, it has at least as many flits as channels, and no
// Avail feeds it.
func (j *Journey) closedForm() bool {
	return j.Route.closed && j.Flits >= len(j.Route.hops) && j.Avail == nil
}

// prepare sizes j's slabs for its route, message and fill, reusing a
// recycled journey's outright.
func (j *Journey) prepare() {
	L, M := len(j.Route.Channels), j.Flits
	closed := j.closedForm()
	n := L*M + M
	if closed {
		n = 2*M + L - 1
	}
	if cap(j.floats) < n {
		j.floats = make([]float64, n)
	}
	j.floats = j.floats[:n]
	j.Acquire = j.floats[:L:L]
	j.exits = j.floats[n-M : n : n]
	if !closed {
		if cap(j.ints) < 2*L {
			j.ints = make([]int, 2*L)
		}
		j.ints = j.ints[:2*L]
		clear(j.ints[:L]) // nothing settled
	}
	j.prepared = true
}

// settle brings the flit schedule up to the frontier that j's
// acquisitions so far determine (see the package comment): it computes
// the closed-form u_k, fills the newly settled cells row by row, and
// schedules a release for every channel whose tail crossing it reached.
// Cells below the frontier may be left for a later grant, but a tail
// cell settles exactly at the grant a cell-by-cell evaluation would
// settle it — the one whose acquisition, made now, it waits on — so no
// release is scheduled into the past, and releases go out in ascending
// channel order: the event order does not depend on how the fill is
// batched. It serves every journey the closed form does not: a deeper
// buffer after the first channel or fewer flits than channels, where
// cells settle before the last grant, a falling flit time, an Avail.
func (e *Engine) settle(j *Journey) {
	hops := j.Route.hops
	L, M, a := len(hops), j.Flits, j.acquired
	start := j.floats[:L*M]
	settled, u := j.ints[:a], j.ints[L:L+a]

	u[a-1] = M
	if a < L {
		u[a-1] = min(M, hops[a].b)
	}
	for k := a - 2; k >= 0; k-- {
		u[k] = min(M, u[k+1]+hops[k+1].b)
	}
	if u[0] < M {
		return // no tail crossing is known yet
	}

	// Row 0 holds the acquisition times. Row fl needs the columns k with
	// settled[k] ≤ fl < u[k]; neither bound grows with k, so they form a
	// run starting at k0, and k0 only moves left as fl rises.
	k0 := a
	for fl := 1; fl < M; fl++ {
		for k0 > 0 && settled[k0-1] <= fl {
			k0--
		}
		row := start[fl*L : fl*L+L]
		prev := start[(fl-1)*L : fl*L]
		for k := k0; k < a && fl < u[k]; k++ {
			// Arrival at this channel's switch.
			var st float64
			if k > 0 {
				st = row[k-1] + hops[k-1].s
			} else if j.Avail != nil {
				st = j.Avail[fl]
			}
			// Link serialization: d(fl−1, k).
			if ls := prev[k] + hops[k].s; ls > st {
				st = ls
			}
			// Buffer space at the next stage: start(fl−b, k+1).
			if k < L-1 {
				if b := hops[k+1].b; fl >= b {
					if bo := start[(fl-b)*L+k+1]; bo > st {
						st = bo
					}
				}
			}
			row[k] = st
		}
	}

	tail := start[(M-1)*L : M*L]
	for k := range u {
		if settled[k] < M && u[k] == M {
			e.K.At(tail[k]+hops[k].s, hops[k].rel)
		}
		settled[k] = u[k]
	}
	if a == L {
		for fl := range j.exits {
			j.exits[fl] = start[fl*L+L-1] + hops[L-1].s
		}
	}
}

// fillClosed writes a closed-form journey's schedule at its last grant
// (see the package comment): the diagonal times T[L…M+L−2] after the
// acquisitions, each exit as its diagonal is reached, then the L releases
// in ascending channel order — the times and calls settle makes at that
// grant, bit for bit.
func (e *Engine) fillClosed(j *Journey) {
	hops := j.Route.hops
	L, M := len(hops), j.Flits
	T := j.floats[:M+L-1]
	diag, exits := T[L-1:], j.exits[:M] // diag[fl] = T[fl+L−1], flit fl's start on the last channel
	sigma, last := j.Route.sigma, hops[L-1].s
	t := diag[0]
	exits[0] = t + last
	for fl := 1; fl < M; fl++ {
		t += sigma
		diag[fl] = t
		exits[fl] = t + last
	}
	for k, h := range hops {
		e.K.At(T[M-1+k]+h.s, h.rel)
	}
}

func (e *Engine) release(ch *Channel) {
	if !ch.busy {
		panic("wormhole: releasing an idle channel")
	}
	ch.busy = false
	ch.BusyTime += e.K.Now() - ch.lastAcquire
	if next, ok := ch.waiters.pop(); ok {
		e.grant(ch, next)
	}
}

// fifo is a ring-buffer queue of journeys that avoids the unbounded
// backing-array growth of slice-shifting under saturation.
type fifo struct {
	buf        []*Journey
	head, size int
}

func (f *fifo) len() int { return f.size }

func (f *fifo) push(j *Journey) {
	if f.size == len(f.buf) {
		grown := make([]*Journey, max(8, 2*len(f.buf)))
		for i := 0; i < f.size; i++ {
			grown[i] = f.buf[(f.head+i)%len(f.buf)]
		}
		f.buf = grown
		f.head = 0
	}
	f.buf[(f.head+f.size)%len(f.buf)] = j
	f.size++
}

func (f *fifo) pop() (*Journey, bool) {
	if f.size == 0 {
		return nil, false
	}
	j := f.buf[f.head]
	f.buf[f.head] = nil
	f.head = (f.head + 1) % len(f.buf)
	f.size--
	return j, true
}
