package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// endToEnd names the metrics a run with tracing off prints on its last
// line. Each applies to every workload; the others a workload measures
// (repeat_p99_ms, first_line_p50_ms, throughput_rps, fail_share) are
// printed in its table.
var endToEnd = []string{"setup_s", "lat_p50_ms", "fresh_p50_ms", "capacity_rps", "mem_retained_mb"}

// summary condenses one driven phase.
type summary struct {
	name    string
	rate    float64
	sent    int
	failed  int
	aborted bool
	// Latencies in ms: all requests (failures count as +Inf, missing any
	// limit), first-time specs, repeats, and time to first stream line.
	lat, fresh, repeat, first []float64
	lag                       []float64 // generator lateness, ms, in send order
	// Per-window p50 and p99 of lat, and p99 of repeat: one value per
	// window of the phase, so a stall spoils one window, not the run.
	winP50, winP99, winRepeatP99 []float64
	p99                          float64
	growing                      bool // generator lag grew over the phase
	maxBacklog                   int
	completedRPS                 float64
}

func summarize(pr *phaseRun, limitMs float64, win time.Duration) *summary {
	s := &summary{name: pr.phase.Name, rate: pr.phase.Rate, aborted: pr.aborted, maxBacklog: pr.maxBacklog}
	nwin := int(pr.phase.Dur / win)
	if nwin < 1 {
		nwin = 1
	}
	winLat := make([][]float64, nwin)
	winRepeat := make([][]float64, nwin)
	for i := range pr.samples {
		sm := &pr.samples[i]
		if !sm.sent {
			continue
		}
		wi := min(int(sm.at/win), nwin-1)
		s.sent++
		s.lag = append(s.lag, ms(sm.lag))
		if sm.fail != "" {
			s.failed++
			s.lat = append(s.lat, math.Inf(1))
			winLat[wi] = append(winLat[wi], math.Inf(1))
			continue
		}
		l := ms(sm.lat)
		s.lat = append(s.lat, l)
		winLat[wi] = append(winLat[wi], l)
		if pr.phase.Reqs[i].Fresh {
			s.fresh = append(s.fresh, l)
		} else {
			s.repeat = append(s.repeat, l)
			winRepeat[wi] = append(winRepeat[wi], l)
		}
		if sm.first > 0 {
			s.first = append(s.first, ms(sm.first))
		}
	}
	s.completedRPS = float64(s.sent-s.failed) / pr.elapsed.Seconds()
	if n := len(s.lag) / 4; n > 0 {
		s.growing = mean(s.lag[len(s.lag)-n:]) > mean(s.lag[:n])+limitMs/4
	}
	s.p99 = quantile(append([]float64(nil), s.lat...), 0.99)
	for i := range winLat {
		if len(winLat[i]) > 0 {
			s.winP50 = append(s.winP50, median(winLat[i]))
			s.winP99 = append(s.winP99, quantile(winLat[i], 0.99))
		}
		if len(winRepeat[i]) > 0 {
			s.winRepeatP99 = append(s.winRepeatP99, quantile(winRepeat[i], 0.99))
		}
	}
	return s
}

// holds reports whether the phase met the workload's limit: everything
// sent and answered, p99 within the limit, and no growing backlog.
func (s *summary) holds(limitMs float64) bool {
	return !s.aborted && s.failed == 0 && s.sent > 0 && s.p99 <= limitMs && !s.growing
}

func (s *summary) line(limitMs float64) string {
	return fmt.Sprintf("%-8s rate %7.1f req/s  sent %6d  failed %d  p99 %8.3f ms  backlog peak %3d  lag grew %-5v  held %v",
		s.name, s.rate, s.sent, s.failed, s.p99, s.maxBacklog, s.growing, s.holds(limitMs))
}

// rampSteps bounds the capacity ramp.
const rampSteps = 6

// segments is how many parts an open loop's nominal phase is run in; the
// overload probes of the capacity search run between them.
const segments = 6

// openRun drives an open-loop plan: the nominal phase in segments, the
// capacity ramp after the first segment, and one overload probe after
// each later segment, so the nominal windows and the overload probes are
// spread over the whole run and see the same machine.
//
// The ramp raises the offered rate from the nominal one by the workload's
// step until a rate misses the limit twice running: that brackets the
// knee. The overload probes offer one step more than the first missing
// rate, and capacity is the median rate the tier completed under them.
// Near the knee a one-second probe holds or misses the limit by chance;
// the rate an overloaded tier completes does not.
func openRun(d *driver, p *Plan, w *workload, ck *checker, rep *report) (nom *summary, rps float64, note string) {
	segs := split(&p.First, segments)
	runs := make([]*phaseRun, 0, segments)
	runSeg := func(k int) {
		pr := d.run(&segs[k].Phase)
		for i := range pr.samples {
			pr.samples[i].at += segs[k].start
		}
		ck.add(pr)
		runs = append(runs, pr)
	}
	from, probes := 0, 0
	probe := func(rate float64, kind string) *summary {
		if probes >= w.searchSteps {
			return nil
		}
		ph, next := p.probe(rate, from)
		if len(ph.Reqs) == 0 {
			return nil
		}
		from = next
		probes++
		pr := d.run(&ph)
		ck.add(pr)
		s := summarize(pr, w.limitMs, w.window)
		rep.note("%-8s %s  completed %7.1f req/s", kind, s.line(w.limitMs), s.completedRPS)
		return s
	}

	runSeg(0)
	first := summarize(runs[0], w.limitMs, w.window)
	lo, hi := first, (*summary)(nil)
	if !first.holds(w.limitMs) {
		lo, hi = nil, first
	}
	rate := w.nominal
	for i := 0; hi == nil && i < rampSteps; i++ {
		rate *= w.step
		s := probe(rate, "ramp")
		if s != nil && !s.holds(w.limitMs) && s.failed == 0 {
			// One stall on a shared machine must not end the ramp early.
			s = probe(rate, "retry")
		}
		if s == nil {
			break
		}
		if s.holds(w.limitMs) {
			lo = s
		} else {
			hi = s
		}
	}
	switch {
	case lo == nil:
		note = "the nominal rate already misses the limit"
	case hi == nil:
		note = fmt.Sprintf("every ramp rate up to %.0f req/s held the limit", lo.rate)
	default:
		note = fmt.Sprintf("knee between %.0f and %.0f req/s", lo.rate, hi.rate)
		rate = hi.rate
	}
	var done []float64
	for k := 1; k < segments; k++ {
		runSeg(k)
		if s := probe(rate*w.step, "overload"); s != nil {
			done = append(done, s.completedRPS)
		}
	}
	nom = summarize(join(&p.First, runs), w.limitMs, w.window)
	rep.note("phase    %s", nom.line(w.limitMs))
	if len(done) == 0 {
		return nom, lo.rate, note + "; no probe left to overload the tier"
	}
	return nom, median(done), note
}

// segment is one part of a phase, with its requests rescheduled from the
// segment's own start.
type segment struct {
	Phase
	start time.Duration // where the segment starts in its phase
}

// split cuts ph into n segments of equal duration.
func split(ph *Phase, n int) []segment {
	out := make([]segment, n)
	for k := range out {
		lo, hi := ph.Dur*time.Duration(k)/time.Duration(n), ph.Dur*time.Duration(k+1)/time.Duration(n)
		seg := segment{Phase: Phase{Name: ph.Name, Rate: ph.Rate, Dur: hi - lo}, start: lo}
		i, j := dueBy(ph.Reqs, lo-1), dueBy(ph.Reqs, hi-1)
		for _, r := range ph.Reqs[i:j] {
			r.At -= lo
			seg.Reqs = append(seg.Reqs, r)
		}
		out[k] = seg
	}
	return out
}

// join reassembles the segment runs of ph into one run of the phase.
func join(ph *Phase, runs []*phaseRun) *phaseRun {
	pr := &phaseRun{phase: ph}
	for _, r := range runs {
		pr.samples = append(pr.samples, r.samples...)
		pr.elapsed += r.elapsed
		pr.maxBacklog = max(pr.maxBacklog, r.maxBacklog)
		pr.aborted = pr.aborted || r.aborted
	}
	return pr
}

// senders is the generator's sending goroutines and connections: one per
// CPU the benchmark may use.
func senders() int { return runtime.NumCPU() }

// heapMB forces two collections and returns the live heap in MB.
func heapMB() float64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// runUntraced is the measured run: set the tier up, drive the plan with
// tracing off, read the tier's counters and check every answer.
func runUntraced(w *workload, plan *Plan, rep *report) (*checker, error) {
	base := heapMB()
	t, setups, err := setUp(w.replicas, false)
	if err != nil {
		return nil, err
	}
	defer t.close()
	rep.set("setup_s", "s", median(setups), len(setups))

	d := newDriver(t.base, senders(), readOpts{})
	defer d.close()
	checkN := len(plan.First.Reqs)
	if w.closed {
		checkN = checkPrefix
	}
	ck := newChecker(plan, checkN)
	var nom *summary
	var capRPS float64
	var capNote string
	if w.closed {
		pr := d.run(&plan.First)
		ck.add(pr)
		nom = summarize(pr, w.limitMs, w.window)
		rep.note("phase    %s", nom.line(w.limitMs))
		// With nproc clients back to back the closed loop offers the most
		// the generator can: its completed rate is the capacity.
		capRPS = nom.completedRPS
		capNote = fmt.Sprintf("closed loop of %d clients, p99 %.3f ms against the %.0f ms limit (held %v)",
			senders(), nom.p99, w.limitMs, nom.holds(w.limitMs))
	} else {
		nom, capRPS, capNote = openRun(d, plan, w, ck, rep)
	}
	c, err := t.readCounters(d.clients[0])
	if err != nil {
		return nil, err
	}
	reportLatency(rep, nom, w)
	rep.set("capacity_rps", "req/s", capRPS, 0)
	rep.note("capacity: %s (limit p99 <= %.0f ms)", capNote, w.limitMs)
	rep.set("mem_retained_mb", "MB", heapMB()-base, 0)
	rep.note("tier counters: cache hits %d misses %d evictions %d, computes %d, coalesced %d, router retries %.0f unavailable %.0f",
		c.hits, c.misses, c.evictions, c.computes, c.coalesced, c.retries, c.unavailable)
	return ck, nil
}

// reportLatency sets the latency metrics of the nominal (or closed)
// phase. Metrics that do not apply to the workload are printed as notes.
func reportLatency(rep *report, s *summary, w *workload) {
	rep.note("latency: p50 and p99 per %v window, median over %d windows", w.window, len(s.winP50))
	rep.set("lat_p50_ms", "ms", median(s.winP50), len(s.lat))
	rep.set("lat_p99_ms", "ms", median(s.winP99), len(s.lat))
	rep.set("fresh_p50_ms", "ms", median(s.fresh), len(s.fresh))
	if len(s.repeat) > 0 {
		rep.set("repeat_p99_ms", "ms", median(s.winRepeatP99), len(s.repeat))
	} else {
		rep.note("repeat_p99_ms: n/a (no repeated specs in %s)", w.name)
	}
	if len(s.first) > 0 {
		rep.set("first_line_p50_ms", "ms", median(s.first), len(s.first))
	} else {
		rep.note("first_line_p50_ms: n/a (no streaming requests in %s)", w.name)
	}
	rep.set("throughput_rps", "req/s", s.completedRPS, s.sent)
	rep.set("fail_share", "ratio", float64(s.failed)/math.Max(1, float64(s.sent)), s.sent)
}
