package scenario

import (
	"fmt"
	"io"
	"math"
	"strings"

	"github.com/ccnet/ccnet/internal/core"
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
	// Sim is the simulator's breakdown of the point's first replication
	// when the runner explains (nil otherwise, and on points not
	// simulated).
	Sim *SimBreakdown
}

// Series is one curve of a result: one flit size of a scenario.
type Series struct {
	Label  string
	Points []Point
	// Models holds one breakdown per model column that is on, when the
	// runner explains.
	Models []ModelBreakdown
}

// ModelBreakdown is one model column's account of a series: where it
// saturates and what each cluster's latency is made of.
type ModelBreakdown struct {
	Column string  // "analysis" or "analysisSF"
	Knee   float64 // saturation point, as the saturation assertion reads it
	// Lambda is the highest grid rate the column's sweep found stable
	// (NaN when it found none), and Clusters the per-cluster terms there
	// (Eqs 1, 4 and 32–39).
	Lambda   float64
	Clusters []core.ClusterResult
}

// SimBreakdown is one simulation run's account of a point.
type SimBreakdown struct {
	Intra, Inter float64 // branch means
	// IntraStages (source wait, ICN1) and InterStages (source wait,
	// ECN1 ascent, concentrator wait, ICN2, dispatcher wait, ECN1
	// descent) are the stage means sim.Metrics splits each branch into;
	// each sums to its branch mean.
	IntraStages [2]float64
	InterStages [6]float64
	PeakBacklog int
	// GatewayUtil is the busiest gateway ICN2 injection port's
	// utilization, MaxChannelUtil the busiest channel's.
	GatewayUtil, MaxChannelUtil float64
	// Busiest lists the busiest channels, most utilized first and equal
	// utilizations in name order.
	Busiest []ChannelUtil
}

// ChannelUtil is one channel's utilization.
type ChannelUtil struct {
	Name string
	Util float64
}

// busiestChannels is how many channels a SimBreakdown lists.
const busiestChannels = 5

// The stage names of sim.Metrics' IntraStages and InterStages.
var (
	intraStages = []string{"source wait", "ICN1"}
	interStages = []string{"source wait", "ECN1 ascent", "concentrator wait", "ICN2", "dispatcher wait", "ECN1 descent"}
)

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
// reads "-" unless the point holds a simulated mean. An explained
// result's breakdowns follow each series' table.
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
		for _, b := range s.Models {
			renderModel(w, &b)
		}
		for _, p := range s.Points {
			if p.Sim != nil {
				renderSim(w, p.Lambda, p.Sim)
			}
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

// renderModel prints a model column's knee and its per-cluster terms.
func renderModel(w io.Writer, b *ModelBreakdown) {
	fmt.Fprintf(w, "explain %s: knee λ=%.4e", b.Column, b.Knee)
	if b.Clusters == nil {
		fmt.Fprintf(w, "; no stable grid rate\n")
		return
	}
	fmt.Fprintf(w, "; per-cluster terms at λ=%.4e\n", b.Lambda)
	fmt.Fprintf(w, "  %-4s %-6s %-8s %-8s %-8s %-8s %-8s %-8s %s\n",
		"i", "U", "W_in", "T_in", "L_in", "T_ex", "W_d", "L_out", "mean")
	for i, c := range b.Clusters {
		fmt.Fprintf(w, "  %-4d %-6.3f %-8.3f %-8.3f %-8.3f %-8.3f %-8.3f %-8.3f %.3f\n",
			i, c.U, c.WIn, c.TIn, c.LIn, c.TEx, c.WD, c.LOut, c.Mean)
	}
}

// renderSim prints a simulated point's breakdown.
func renderSim(w io.Writer, lambda float64, b *SimBreakdown) {
	stages := func(means []float64, names []string) string {
		parts := make([]string, len(means))
		for k, v := range means {
			parts[k] = fmt.Sprintf("%s %.3f", names[k], v)
		}
		return strings.Join(parts, ", ")
	}
	busiest := make([]string, len(b.Busiest))
	for k, c := range b.Busiest {
		busiest[k] = fmt.Sprintf("%s %.3f", c.Name, c.Util)
	}
	fmt.Fprintf(w, "explain sim λ=%.3e, first replication: intra %.3f, inter %.3f, peak backlog %d, gateway util %.3f, max channel util %.3f\n",
		lambda, b.Intra, b.Inter, b.PeakBacklog, b.GatewayUtil, b.MaxChannelUtil)
	fmt.Fprintf(w, "  intra stages: %s\n", stages(b.IntraStages[:], intraStages))
	fmt.Fprintf(w, "  inter stages: %s\n", stages(b.InterStages[:], interStages))
	fmt.Fprintf(w, "  busiest channels: %s\n", strings.Join(busiest, ", "))
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
