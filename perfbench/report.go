package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics in the order they were measured, with
// the sample count behind each.
type report struct {
	names   []string
	metrics map[string]metric
	counts  map[string]int
	notes   []string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, counts: map[string]int{}}
}

// set records a metric measured over n samples (0 when not a sample
// statistic).
func (r *report) set(name, unit string, v float64, n int) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.counts[name] = n
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// table prints every metric by name, with its unit and sample count.
func (r *report) table(w io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, name := range r.names {
		m := r.metrics[name]
		fmt.Fprintf(w, "  %-30s %14.6g %-6s", name, m.Value, m.Unit)
		if c := r.counts[name]; c > 0 {
			fmt.Fprintf(w, "  n=%d", c)
		}
		fmt.Fprintln(w)
	}
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultLine renders the named metrics as the final JSON line; a name the
// run did not measure is an error.
func (r *report) resultLine(names []string, ck *checker, correct bool) ([]byte, error) {
	res := result{Correct: correct, Attempted: ck.attempted, Failed: ck.failed, Metrics: map[string]metric{}}
	for _, n := range names {
		m, ok := r.metrics[n]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		res.Metrics[n] = m
	}
	return json.Marshal(res)
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// quantile returns the nearest-rank q-quantile of xs, sorting it in
// place; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
