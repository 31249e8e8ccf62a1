// Package stats implements the measurement protocol of the paper's
// validation section: per-message latency samples gathered between a
// warm-up phase and a drain phase, summarized as means with confidence
// intervals, plus the running accumulators they are built from.
package stats

import (
	"fmt"
	"math"
)

// Accumulator keeps running count/mean/variance (Welford) plus extrema.
type Accumulator struct {
	n        uint64
	mean, m2 float64
	min, max float64
}

// Add records one sample.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
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

// Min returns the smallest sample (0 when empty).
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest sample (0 when empty).
func (a *Accumulator) Max() float64 { return a.max }

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

// String summarizes the accumulator.
func (a *Accumulator) String() string {
	return fmt.Sprintf("n=%d mean=%.4g ±%.2g sd=%.4g min=%.4g max=%.4g",
		a.n, a.Mean(), a.CI95(), a.StdDev(), a.min, a.max)
}

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
// as in the paper), and recorded at delivery.
type Collector struct {
	WarmupCount  uint64
	MeasureCount uint64

	generated uint64
	Latency   Accumulator

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

// Record registers the delivery of a message generated in phase p with
// the given latency.
func (c *Collector) Record(p Phase, latency float64) {
	if p != Measure {
		return
	}
	c.Latency.Add(latency)
	c.measuredDelivered++
}

// Generated returns the total number of messages classified so far.
func (c *Collector) Generated() uint64 { return c.generated }

// DoneMeasuring reports whether every measured-phase message has been
// generated and delivered.
func (c *Collector) DoneMeasuring() bool {
	return c.generated >= c.WarmupCount+c.MeasureCount &&
		c.measuredDelivered >= c.MeasureCount
}

// BatchMeans splits samples into nBatches equal batches and returns the
// batch means — the standard way to de-correlate steady-state simulation
// output before interval estimation.
func BatchMeans(samples []float64, nBatches int) []float64 {
	if nBatches <= 0 || len(samples) < nBatches {
		return nil
	}
	size := len(samples) / nBatches
	means := make([]float64, 0, nBatches)
	for b := 0; b < nBatches; b++ {
		var sum float64
		for i := b * size; i < (b+1)*size; i++ {
			sum += samples[i]
		}
		means = append(means, sum/float64(size))
	}
	return means
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
