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
// it reached, in channel order. This frontier fill, settle, serves the
// journeys with a deeper buffer after the first channel or with M < L.
// The paper's journeys — single-flit buffers (B_k = 1 for k ≥ 1) and
// M ≥ L — settle nothing before the final acquisition, and fillOnePass
// computes their whole schedule there in one pass with no frontier:
// behind a one-flit buffer the link term never binds before the last
// column, so each cell is the max of two terms, bit for bit the cell
// settle computes. The engine reproduces the defining wormhole
// behaviours: the pipeline streams at the rate of the slowest held
// channel, and a blocked head stalls its body flits in place, holding
// every upstream channel whose buffers cannot absorb them; with
// B ≥ message length the behaviour becomes virtual cut-through.
//
// Journeys may be chained through store-and-forward points (the paper's
// concentrator/dispatcher buffers) by feeding one journey's per-flit exit
// times into the next journey's Avail vector.
package wormhole

import (
	"fmt"
	"math"

	"github.com/ccnet/ccnet/internal/des"
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

// QueueLen returns the number of messages currently waiting on the channel.
func (c *Channel) QueueLen() int { return c.waiters.len() }

// Journey is one wormhole traversal of a channel sequence by a message of
// Flits flits.
type Journey struct {
	Channels []*Channel
	Flits    int

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
	// Channels[k]: row 0 of the start matrix. Exposed for latency
	// decomposition in tests and stats.
	Acquire []float64

	idx      int // next channel index to acquire
	acquired int // channels acquired so far

	// Flit-schedule state, allocated at the first grant and reusable
	// through Engine.Recycle. floats holds the start(j,k) matrix
	// row-major (start[j·L+k], so Acquire is its first row), then exits,
	// then each channel's s_k; ints holds each channel's B_k, then the
	// settled row count of each column, then the frontier u_k of the
	// current grant. Copying s_k and B_k means filling a cell reads no
	// *Channel, and a journey costs two allocations.
	floats   []float64 // start (L·M) | exits (M) | flit times (L)
	ints     []int     // depths (L) | settled (L) | frontier (L)
	exits    []float64 // d(j, L−1), a view into floats
	prepared bool

	// onePass is set by prepare when every channel after the first has a
	// single-flit buffer and Flits ≥ L: nothing settles before the last
	// grant, which fills the whole schedule with fillOnePass.
	onePass bool
}

// Engine drives journeys over a shared event kernel.
type Engine struct {
	K *des.Kernel

	// Started and Completed count journeys, for conservation checks.
	Started, Completed uint64

	// requestFn and releaseFn are the shared des.ScheduleCall handlers
	// for head advancement and tail release — one func value each for
	// the whole run, so steady-state scheduling allocates no closures.
	requestFn func(any)
	releaseFn func(any)

	free []*Journey // Recycle freelist
}

// NewEngine returns an Engine bound to kernel k.
func NewEngine(k *des.Kernel) *Engine { return &Engine{K: k} }

// handlers lazily builds the shared event handlers (NewEngine callers
// get them on first Start; zero-value Engines too).
func (e *Engine) handlers() {
	if e.requestFn == nil {
		e.requestFn = func(a any) { e.request(a.(*Journey)) }
		e.releaseFn = func(a any) { e.release(a.(*Channel)) }
	}
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
	*j = Journey{floats: j.floats, ints: j.ints}
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
	if flitTime <= 0 || math.IsNaN(flitTime) || math.IsInf(flitTime, 0) {
		panic(fmt.Sprintf("wormhole: invalid flit time %v for %s", flitTime, name))
	}
	if depth < 1 {
		panic(fmt.Sprintf("wormhole: invalid buffer depth %d for %s", depth, name))
	}
	return &Channel{Name: name, FlitTime: flitTime, BufferDepth: depth}
}

// Start schedules journey j to begin requesting its first channel at
// absolute time at.
func (e *Engine) Start(j *Journey, at float64) {
	if len(j.Channels) == 0 {
		panic("wormhole: journey with no channels")
	}
	if j.Flits <= 0 {
		panic(fmt.Sprintf("wormhole: journey with %d flits", j.Flits))
	}
	if j.Avail != nil && len(j.Avail) != j.Flits {
		panic(fmt.Sprintf("wormhole: Avail has %d entries for %d flits", len(j.Avail), j.Flits))
	}
	for _, ch := range j.Channels {
		if ch.BufferDepth < 1 {
			panic(fmt.Sprintf("wormhole: channel %s has buffer depth %d", ch.Name, ch.BufferDepth))
		}
	}
	j.idx = 0
	j.acquired = 0
	j.prepared = false
	e.Started++
	e.handlers()
	e.K.ScheduleCallAt(at, e.requestFn, j)
}

// request tries to acquire j's next channel, queueing FIFO if held.
func (e *Engine) request(j *Journey) {
	ch := j.Channels[j.idx]
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

	last := j.acquired == len(j.Channels)
	if !last {
		j.idx++
		// The head flit reaches the next switch after one flit time.
		e.K.ScheduleCall(ch.FlitTime, e.requestFn, j)
	}
	switch {
	case !j.onePass:
		e.settle(j)
	case last:
		e.fillOnePass(j)
	}
	if last {
		e.Completed++
		if j.OnComplete != nil {
			j.OnComplete(j, j.exits)
		}
	}
}

// prepare sizes j's slabs for its path and message, reusing a recycled
// journey's outright, copies each channel's s_k and B_k, and decides
// whether the schedule takes the one-pass fill.
func (j *Journey) prepare() {
	L, M := len(j.Channels), j.Flits
	if cap(j.floats) < L*M+M+L {
		j.floats = make([]float64, L*M+M+L)
	}
	j.floats = j.floats[:L*M+M+L]
	j.Acquire = j.floats[:L:L]
	j.exits = j.floats[L*M : L*M+M : L*M+M]
	if cap(j.ints) < 3*L {
		j.ints = make([]int, 3*L)
	}
	j.ints = j.ints[:3*L]
	j.onePass = M >= L
	for k, c := range j.Channels {
		j.floats[L*M+M+k] = c.FlitTime
		j.ints[k] = c.BufferDepth
		if k > 0 && c.BufferDepth != 1 {
			j.onePass = false // B_0 never enters the recurrence
		}
	}
	clear(j.ints[L : 2*L]) // nothing settled
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
// batched. It serves every journey that fillOnePass does not: a buffer
// deeper than one flit after the first channel, or fewer flits than
// channels, where cells settle before the last grant.
func (e *Engine) settle(j *Journey) {
	L, M, a := len(j.Channels), j.Flits, j.acquired
	start, s := j.floats[:L*M], j.floats[L*M+M:]
	depth, settled, u := j.ints[:L], j.ints[L:L+a], j.ints[2*L:2*L+a]

	u[a-1] = M
	if a < L {
		u[a-1] = min(M, depth[a])
	}
	for k := a - 2; k >= 0; k-- {
		u[k] = min(M, u[k+1]+depth[k+1])
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
				st = row[k-1] + s[k-1]
			} else if j.Avail != nil {
				st = j.Avail[fl]
			}
			// Link serialization: d(fl−1, k).
			if ls := prev[k] + s[k]; ls > st {
				st = ls
			}
			// Buffer space at the next stage: start(fl−b, k+1).
			if k < L-1 {
				if b := depth[k+1]; fl >= b {
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
			e.K.ScheduleCallAt(tail[k]+s[k], e.releaseFn, j.Channels[k])
		}
		settled[k] = u[k]
	}
	if a == L {
		for fl := range j.exits {
			j.exits[fl] = start[fl*L+L-1] + s[L-1]
		}
	}
}

// fillOnePass computes a one-pass journey's whole schedule at its last
// grant: rows 1…M−1 in row-major order, with each exit, then the L
// releases in ascending channel order — the cells, exits and calls that
// settle makes at that grant, bit for bit. Behind a one-flit buffer the
// link term d(fl−1, k) never binds before the last column: the buffer
// term start(fl−1, k+1) is at least that cell's own arrival term, the
// same float sum d(fl−1, k), and in row 0 the head requests channel k+1
// at a_k + s_k and cannot be granted it earlier. max is exact, so
// dropping a dominated term changes no bit.
func (e *Engine) fillOnePass(j *Journey) {
	L, M := len(j.Channels), j.Flits
	start, s := j.floats[:L*M], j.floats[L*M+M:L*M+M+L]
	exits, avail := j.exits, j.Avail
	last := s[L-1]
	prev := start[:L] // row 0: the acquisition times
	exits[0] = prev[L-1] + last
	for fl := 1; fl < M; fl++ {
		row := start[fl*L : fl*L+L]
		// in is the arrival: Avail[fl] at column 0, d(fl, k−1) after it.
		var in float64
		if avail != nil {
			in = avail[fl]
		}
		for k, sk := range s[:L-1] {
			st := prev[k+1]
			if in > st {
				st = in
			}
			row[k] = st
			in = st + sk
		}
		st := prev[L-1] + last
		if in > st {
			st = in
		}
		row[L-1] = st
		exits[fl] = st + last
		prev = row
	}
	for k, ch := range j.Channels {
		e.K.ScheduleCallAt(prev[k]+s[k], e.releaseFn, ch)
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
