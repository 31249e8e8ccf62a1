package core

import (
	"context"
	"fmt"

	"github.com/ccnet/ccnet/internal/batch"
)

// Sweep evaluates the model at each traffic rate and returns the results
// in order. Rates past the saturation point yield Saturated results.
func (m *Model) Sweep(lambdas []float64) []*Result {
	out := make([]*Result, len(lambdas))
	for i, l := range lambdas {
		out[i] = m.Evaluate(l)
	}
	return out
}

// SweepParallel evaluates the model at each traffic rate on the
// repository's one parallel loop and returns the results in grid order,
// identical to Sweep (Evaluate only reads the Model, so concurrent
// evaluations are safe). workers <= 0 uses GOMAXPROCS; a single worker,
// or a grid of one point, runs serially on the caller's goroutine.
func (m *Model) SweepParallel(lambdas []float64, workers int) []*Result {
	out := make([]*Result, len(lambdas))
	// Run fails only through its context or done, and neither can end
	// here.
	_ = batch.Run(context.TODO(), len(lambdas), workers, func(_, i int) {
		out[i] = m.Evaluate(lambdas[i])
	}, nil)
	return out
}

// LambdaGrid returns n evenly spaced rates from lo to hi inclusive —
// the x-axes of the paper's figures.
func LambdaGrid(lo, hi float64, n int) []float64 {
	if n < 2 || lo < 0 || hi <= lo {
		panic(fmt.Sprintf("core: invalid grid [%v,%v] n=%d", lo, hi, n))
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	return out
}
