package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAccumulatorKnownValues(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.Count() != 8 {
		t.Fatalf("count = %d", a.Count())
	}
	if math.Abs(a.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", a.Mean())
	}
	// Population variance of this classic set is 4; sample variance 32/7.
	if math.Abs(a.Variance()-32.0/7.0) > 1e-12 {
		t.Fatalf("variance = %v, want %v", a.Variance(), 32.0/7.0)
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Fatalf("min/max = %v/%v", a.Min(), a.Max())
	}
}

func TestAccumulatorMatchesNaiveComputation(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		var a Accumulator
		var sum float64
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r) / 3
			a.Add(xs[i])
			sum += xs[i]
		}
		mean := sum / float64(len(xs))
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		v := ss / float64(len(xs)-1)
		return math.Abs(a.Mean()-mean) < 1e-6 && math.Abs(a.Variance()-v) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyAccumulator(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Variance() != 0 || a.StdErr() != 0 || a.CI95() != 0 {
		t.Fatal("empty accumulator must report zeros")
	}
}

func TestCollectorPhaseProtocol(t *testing.T) {
	c := Collector{WarmupCount: 3, MeasureCount: 5}
	var phases []Phase
	for i := 0; i < 10; i++ {
		phases = append(phases, c.NextPhase())
	}
	want := []Phase{Warmup, Warmup, Warmup, Measure, Measure, Measure, Measure, Measure, Drain, Drain}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("message %d classified %v, want %v", i, phases[i], want[i])
		}
	}
}

func TestCollectorOnlyMeasuresMeasurePhase(t *testing.T) {
	c := Collector{WarmupCount: 1, MeasureCount: 2}
	c.Record(Warmup, 100)
	c.Record(Drain, 100)
	if c.Latency.Count() != 0 {
		t.Fatal("warmup/drain samples leaked into statistics")
	}
	c.Record(Measure, 10)
	c.Record(Measure, 20)
	if c.Latency.Count() != 2 || c.Latency.Mean() != 15 {
		t.Fatalf("measured stats wrong: %v", c.Latency.String())
	}
}

func TestCollectorDoneMeasuring(t *testing.T) {
	c := Collector{WarmupCount: 2, MeasureCount: 3}
	for i := 0; i < 5; i++ {
		c.NextPhase()
	}
	if c.DoneMeasuring() {
		t.Fatal("done before measured messages delivered")
	}
	for i := 0; i < 3; i++ {
		c.Record(Measure, 1)
	}
	if !c.DoneMeasuring() {
		t.Fatal("not done after all measured messages delivered")
	}
}

func TestCI95ShrinksWithSamples(t *testing.T) {
	var small, large Accumulator
	xs := []float64{1, 5, 3, 8, 2, 9, 4, 6}
	for i := 0; i < 10; i++ {
		small.Add(xs[i%len(xs)])
	}
	for i := 0; i < 10000; i++ {
		large.Add(xs[i%len(xs)])
	}
	if large.CI95() >= small.CI95() {
		t.Fatalf("CI95 did not shrink: %v -> %v", small.CI95(), large.CI95())
	}
}

func TestBatchMeans(t *testing.T) {
	samples := []float64{1, 1, 2, 2, 3, 3, 4, 4}
	means := BatchMeans(samples, 4)
	want := []float64{1, 2, 3, 4}
	for i := range want {
		if means[i] != want[i] {
			t.Fatalf("batch means = %v, want %v", means, want)
		}
	}
	if BatchMeans(samples, 0) != nil || BatchMeans([]float64{1}, 2) != nil {
		t.Fatal("degenerate batch splits must return nil")
	}
}

func TestTCritical95(t *testing.T) {
	cases := map[int]float64{1: 12.706, 4: 2.776, 30: 2.042, 1000: 1.96}
	for df, want := range cases {
		if got := TCritical95(df); got != want {
			t.Errorf("TCritical95(%d) = %v, want %v", df, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("TCritical95(0) did not panic")
		}
	}()
	TCritical95(0)
}

func TestCI95TWiderThanNormalForSmallN(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{1, 2, 3, 4, 5} {
		a.Add(x)
	}
	if !(a.CI95T() > a.CI95()) {
		t.Fatalf("t-interval (%v) not wider than normal (%v) at n=5", a.CI95T(), a.CI95())
	}
	var empty Accumulator
	empty.Add(1)
	if empty.CI95T() != 0 {
		t.Fatal("CI95T with one sample must be 0")
	}
}
