package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
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

// SweepParallel evaluates the model at each traffic rate across a pool of
// workers goroutines and returns the results in grid order, identical to
// Sweep (Evaluate only reads the Model, so concurrent evaluations are
// safe). workers <= 0 uses GOMAXPROCS; a single worker, or a grid of one
// point, falls back to the serial Sweep.
func (m *Model) SweepParallel(lambdas []float64, workers int) []*Result {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(lambdas) {
		workers = len(lambdas)
	}
	if workers <= 1 {
		return m.Sweep(lambdas)
	}
	out := make([]*Result, len(lambdas))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(lambdas) {
					return
				}
				out[i] = m.Evaluate(lambdas[i])
			}
		}()
	}
	wg.Wait()
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
