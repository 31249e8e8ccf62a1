package scenario

import (
	"fmt"
	"io"
	"math"

	"github.com/ccnet/ccnet/internal/viz"
)

// Point is one traffic rate of a campaign's result.
type Point struct {
	Lambda float64
	// Analysis is the paper's model evaluated verbatim (Eq 32 latency
	// composition); AnalysisSF adds the store-and-forward gateway
	// correction (Options.GatewayStoreAndForward), the variant that
	// matches a physically realizable system. NaN means the column is
	// off; +Inf means saturated.
	Analysis   float64
	AnalysisSF float64
	// Simulation is the measured mean latency (NaN when the point was not
	// simulated; +Inf when the simulator declared saturation).
	Simulation float64
	SimCI      float64
	SimEvents  uint64
}

// Series is one curve of a result: one flit size of a scenario.
type Series struct {
	Label  string
	Points []Point
}

// Result is one scenario's campaign result, laid out like the paper's
// figures: one series per flit size, one point per traffic rate.
type Result struct {
	ID     string // the scenario name
	Title  string
	Series []Series
	Notes  []string
}

// column returns the named model column of a point: "analysis" or
// "analysisSF".
func column(p Point, col string) float64 {
	if col == "analysis" {
		return p.Analysis
	}
	return p.AnalysisSF
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// lightLoad averages |model−sim|/sim, in percent, for each named model
// column over the light-load points of every series: rates at most frac
// of that series' last point where the simulation and every named column
// are finite. n counts the averaged points; the means are NaN when n is 0.
func lightLoad(r *Result, frac float64, cols ...string) (pct []float64, n int) {
	stable := func(p Point) bool {
		if !finite(p.Simulation) {
			return false
		}
		for _, col := range cols {
			if !finite(column(p, col)) {
				return false
			}
		}
		return true
	}
	sums := make([]float64, len(cols))
	for _, s := range r.Series {
		var maxStable float64
		for _, p := range s.Points {
			if stable(p) && p.Lambda > maxStable {
				maxStable = p.Lambda
			}
		}
		limit := frac * maxStable
		for _, p := range s.Points {
			if !stable(p) || p.Lambda > limit {
				continue
			}
			for c, col := range cols {
				sums[c] += math.Abs(column(p, col)-p.Simulation) / p.Simulation * 100
			}
			n++
		}
	}
	for c := range sums {
		sums[c] /= float64(n)
	}
	return sums, n
}

// LightLoadError summarizes |model−sim|/sim over the simulated points in
// each series' light-load region — rates below frac of that series' own
// last point where simulation and both model variants are all stable.
// It returns NaNs when nothing qualifies.
func LightLoadError(r *Result, frac float64) (paperPct, sfPct float64) {
	pct, _ := lightLoad(r, frac, "analysis", "analysisSF")
	return pct[0], pct[1]
}

// ciOf returns p's confidence interval when p holds a simulated mean,
// and NaN when it holds none: a point not simulated, or saturated.
func ciOf(p Point) float64 {
	if math.IsNaN(p.Simulation) || math.IsInf(p.Simulation, 0) {
		return math.NaN()
	}
	return p.SimCI
}

// WriteCSV emits the result as CSV: one row per (series, point). The
// sim_ci cell is empty unless the point holds a simulated mean.
func WriteCSV(w io.Writer, r *Result) error {
	if _, err := fmt.Fprintln(w, "experiment,series,lambda,analysis,analysis_sf,simulation,sim_ci"); err != nil {
		return err
	}
	f := func(v float64) string {
		switch {
		case math.IsNaN(v):
			return ""
		case math.IsInf(v, 1):
			return "inf"
		default:
			return fmt.Sprintf("%.6g", v)
		}
	}
	for _, s := range r.Series {
		for _, p := range s.Points {
			if _, err := fmt.Fprintf(w, "%s,%s,%.6g,%s,%s,%s,%s\n",
				r.ID, s.Label, p.Lambda, f(p.Analysis), f(p.AnalysisSF), f(p.Simulation), f(ciOf(p))); err != nil {
				return err
			}
		}
	}
	return nil
}

// Render prints a human-readable table of the result; the ci95 column
// reads "-" unless the point holds a simulated mean.
func Render(w io.Writer, r *Result) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title); err != nil {
		return err
	}
	f := func(v float64) string {
		switch {
		case math.IsNaN(v):
			return "      -"
		case math.IsInf(v, 1):
			return "    sat"
		default:
			return fmt.Sprintf("%7.1f", v)
		}
	}
	for _, s := range r.Series {
		fmt.Fprintf(w, "-- %s --\n", s.Label)
		fmt.Fprintf(w, "%-12s %-9s %-9s %-9s %s\n", "lambda", "analysis", "analy+SF", "sim", "ci95")
		for _, p := range s.Points {
			fmt.Fprintf(w, "%-12.3e %s   %s   %s   %s\n",
				p.Lambda, f(p.Analysis), f(p.AnalysisSF), f(p.Simulation), f(ciOf(p)))
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	if paper, sf := LightLoadError(r, 0.7); !math.IsNaN(paper) {
		fmt.Fprintf(w, "light-load mean |err|: paper-eq %.1f%%, with-S&F %.1f%%\n", paper, sf)
	}
	return nil
}

// RenderChart draws the result as an ASCII chart: one curve per
// (series × populated column). Saturated/absent points are skipped by the
// plotter.
func RenderChart(w io.Writer, r *Result, width, height int) error {
	var curves []viz.Series
	for _, s := range r.Series {
		var xs []float64
		analysis := viz.Series{Label: s.Label + " (analysis)"}
		analysisSF := viz.Series{Label: s.Label + " (analysis+SF)"}
		simulation := viz.Series{Label: s.Label + " (sim)"}
		for _, p := range s.Points {
			xs = append(xs, p.Lambda)
			analysis.Y = append(analysis.Y, p.Analysis)
			analysisSF.Y = append(analysisSF.Y, p.AnalysisSF)
			simulation.Y = append(simulation.Y, p.Simulation)
		}
		analysis.X, analysisSF.X, simulation.X = xs, xs, xs
		for _, c := range []viz.Series{analysis, analysisSF, simulation} {
			if hasFinite(c.Y) {
				curves = append(curves, c)
			}
		}
	}
	chart := viz.Chart(curves, viz.Options{
		Width: width, Height: height,
		XLabel: "traffic generation rate (messages/node/time-unit)",
		YLabel: "mean message latency — " + r.Title,
	})
	_, err := fmt.Fprint(w, chart)
	return err
}

func hasFinite(ys []float64) bool {
	for _, y := range ys {
		if finite(y) {
			return true
		}
	}
	return false
}
