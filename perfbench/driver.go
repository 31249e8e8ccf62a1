package main

import (
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is one sent request: its answer plus the generator's timing.
type sample struct {
	answer
	sent bool
	// lat runs from the scheduled send time (open loop) or the actual one
	// (closed loop) to the last response byte; lag is how late the
	// generator sent; first is the time to the first NDJSON line, counted
	// like lat.
	lat   time.Duration
	lag   time.Duration
	first time.Duration
	// at is the scheduled (open loop) or actual (closed loop) send time,
	// from the start of the phase.
	at time.Duration
}

// phaseRun is one driven phase.
type phaseRun struct {
	phase   *Phase
	samples []sample // indexed like phase.Reqs; sent marks the ones sent
	elapsed time.Duration
	// maxBacklog is the peak count of requests past their scheduled time
	// and not yet answered.
	maxBacklog int
	// aborted is set when the backlog passed abortLag and the rest of the
	// phase was not sent.
	aborted bool
}

// abortLag ends an open-loop phase whose generator fell this far behind:
// the phase has failed, and waiting longer only drains a backlog.
const abortLag = time.Second

// driver sends requests from at most len(clients) goroutines, each with
// one connection.
type driver struct {
	base    string
	clients []*http.Client
	opts    readOpts
}

func newDriver(base string, senders int, o readOpts) *driver {
	d := &driver{base: base, opts: o}
	for i := 0; i < senders; i++ {
		d.clients = append(d.clients, newClient())
	}
	return d
}

func (d *driver) close() {
	for _, c := range d.clients {
		c.CloseIdleConnections()
	}
}

// open drives the phase on its Poisson schedule. Senders take requests in
// schedule order; a request whose time has come waits for a free sender,
// and that wait counts in its latency.
func (d *driver) open(ph *Phase) *phaseRun {
	pr := &phaseRun{phase: ph, samples: make([]sample, len(ph.Reqs))}
	var next atomic.Int64
	var stop atomic.Bool
	var mu sync.Mutex
	done := 0
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range d.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(ph.Reqs) {
					return
				}
				r := &ph.Reqs[i]
				sleepUntil(start.Add(r.At))
				sent := time.Now()
				lag := sent.Sub(start) - r.At
				if lag > abortLag {
					stop.Store(true)
					return
				}
				// Backlog: requests due by now minus those answered.
				due := dueBy(ph.Reqs, sent.Sub(start))
				mu.Lock()
				if b := due - done; b > pr.maxBacklog {
					pr.maxBacklog = b
				}
				mu.Unlock()
				a := send(c, d.base, r, d.optsFor(r))
				end := time.Now()
				mu.Lock()
				done++
				mu.Unlock()
				s := &pr.samples[i]
				s.answer, s.sent = a, true
				s.lag, s.at = lag, r.At
				s.lat = end.Sub(start) - r.At
				if a.firstLine > 0 {
					s.first = lag + a.firstLine
				}
			}
		}(c)
	}
	wg.Wait()
	pr.elapsed = time.Since(start)
	pr.aborted = stop.Load()
	return pr
}

// timerSlack is how late the kernel wakes a sleeping thread, about.
const timerSlack = 60 * time.Microsecond

// sleepUntil waits for t. On Linux, time.Sleep of a few hundred
// microseconds wakes up to a millisecond late (the runtime polls its
// timers at millisecond resolution), which would show up as generator lag
// on every request and bunch the arrivals; a nanosleep system call wakes
// within the kernel's timer slack, and a short yield loop covers the rest.
func sleepUntil(t time.Time) {
	if wait := time.Until(t) - timerSlack; wait > 0 {
		ts := syscall.NsecToTimespec(int64(wait))
		syscall.Nanosleep(&ts, nil)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// dueBy counts the requests scheduled at or before t.
func dueBy(reqs []Req, t time.Duration) int {
	lo, hi := 0, len(reqs)
	for lo < hi {
		m := (lo + hi) / 2
		if reqs[m].At <= t {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// closed drives the phase with every sender back to back until the
// phase's time is up or its requests run out. The check prefix is always
// sent whole, so every run of a seed answers the same first specs.
func (d *driver) closed(ph *Phase) *phaseRun {
	pr := &phaseRun{phase: ph, samples: make([]sample, len(ph.Reqs))}
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(ph.Dur)
	var wg sync.WaitGroup
	for _, c := range d.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ph.Reqs) || i >= checkPrefix && time.Now().After(deadline) {
					return
				}
				sent := time.Now()
				a := send(c, d.base, &ph.Reqs[i], d.optsFor(&ph.Reqs[i]))
				s := &pr.samples[i]
				s.answer, s.sent = a, true
				s.lat = time.Since(sent)
				s.at = sent.Sub(start)
				s.first = a.firstLine
			}
		}(c)
	}
	wg.Wait()
	pr.elapsed = time.Since(start)
	pr.maxBacklog = len(d.clients)
	return pr
}

// optsFor takes the result's SHA-256 for a spec's first request only:
// repeats are compared by the cheaper in-process hash.
func (d *driver) optsFor(r *Req) readOpts {
	o := d.opts
	o.sum = r.Fresh
	return o
}

// run drives ph open or closed, as its rate says.
func (d *driver) run(ph *Phase) *phaseRun {
	if ph.Rate == 0 {
		return d.closed(ph)
	}
	return d.open(ph)
}
