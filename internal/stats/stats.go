// Package stats implements the measurement protocol of the paper's
// validation section: per-message latency samples gathered between a
// warm-up phase and a drain phase, summarized as means with confidence
// intervals, plus the running accumulators they are built from.
package stats

import (
	"fmt"
	"math"
)

// Accumulator keeps running count/mean/variance (Welford).
type Accumulator struct {
	n        uint64
	mean, m2 float64
}

// Add records one sample.
func (a *Accumulator) Add(x float64) {
	a.n++
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// Count returns the number of samples.
func (a *Accumulator) Count() uint64 { return a.n }

// Mean returns the sample mean (0 when empty).
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// StdErr returns the standard error of the mean.
func (a *Accumulator) StdErr() float64 {
	if a.n == 0 {
		return 0
	}
	return a.StdDev() / math.Sqrt(float64(a.n))
}

// CI95 returns the half-width of a normal-approximation 95 % confidence
// interval on the mean. Latency samples in the simulator number in the
// tens of thousands, where the normal approximation is exact enough.
func (a *Accumulator) CI95() float64 { return 1.96 * a.StdErr() }

// Phase labels the measurement protocol phases.
type Phase int

const (
	// Warmup discards initial transient samples.
	Warmup Phase = iota
	// Measure gathers statistics.
	Measure
	// Drain lets in-flight traffic complete without being measured.
	Drain
)

func (p Phase) String() string {
	switch p {
	case Warmup:
		return "warmup"
	case Measure:
		return "measure"
	case Drain:
		return "drain"
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// Collector implements the paper's protocol: the first WarmupCount
// generated messages are ignored, the next MeasureCount are measured, and
// everything generated afterwards belongs to the drain phase. Phases are
// assigned at *generation* time (messages are time-stamped when generated,
// as in the paper), and deliveries are counted so the run knows when
// every measured message is in; the caller accumulates the latencies.
type Collector struct {
	WarmupCount  uint64
	MeasureCount uint64

	generated         uint64
	measuredDelivered uint64
}

// NextPhase classifies a newly generated message and returns its phase.
func (c *Collector) NextPhase() Phase {
	c.generated++
	switch {
	case c.generated <= c.WarmupCount:
		return Warmup
	case c.generated <= c.WarmupCount+c.MeasureCount:
		return Measure
	default:
		return Drain
	}
}

// Record registers the delivery of a message generated in phase p.
func (c *Collector) Record(p Phase) {
	if p == Measure {
		c.measuredDelivered++
	}
}

// DoneMeasuring reports whether every measured-phase message has been
// generated and delivered.
func (c *Collector) DoneMeasuring() bool {
	return c.generated >= c.WarmupCount+c.MeasureCount &&
		c.measuredDelivered >= c.MeasureCount
}

// tTable holds two-sided 95 % Student-t critical values for small degrees
// of freedom; beyond the table the normal value 1.96 is used.
var tTable = []float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TCritical95 returns the two-sided 95 % Student-t critical value for the
// given degrees of freedom (df >= 1).
func TCritical95(df int) float64 {
	if df < 1 {
		panic(fmt.Sprintf("stats: invalid degrees of freedom %d", df))
	}
	if df <= len(tTable) {
		return tTable[df-1]
	}
	return 1.96
}

// CI95T returns the half-width of a Student-t 95 % confidence interval on
// the mean — appropriate for small sample counts such as replicated
// simulation runs.
func (a *Accumulator) CI95T() float64 {
	if a.n < 2 {
		return 0
	}
	return TCritical95(int(a.n)-1) * a.StdErr()
}
