// Command ccscen runs declarative what-if scenarios: JSON files that
// describe a heterogeneous cluster-of-clusters system, a traffic section,
// the engines to run (analytical model, simulator, or both) and optional
// assertions. A campaign of several scenarios — or one scenario's load
// grid — fans out over the process's one parallel loop (GOMAXPROCS
// goroutines in all) with deterministic per-job seeds, so results are
// bit-identical at any GOMAXPROCS.
//
// Verbs:
//
//	ccscen run [flags] <file.json|dir> [...]   run scenarios, print results
//	ccscen batch <file.json|->                 run a batch request, stream NDJSON
//	ccscen optimize [flags] <spec.json|->      search a design space for the
//	                                           Pareto frontier
//	ccscen perf [flags] <file.json|->          failure/repair performability
//	                                           analysis (degraded-mode metrics)
//	ccscen fleet [flags] <file.json|->         time-domain fleet simulation of
//	                                           a scenario's fleetsim timeline
//	ccscen validate <file.json|dir> [...]      check files without running
//	ccscen list [dir]                          summarize a scenario directory
//
// Examples:
//
//	ccscen run examples/scenarios/fig3.json
//	ccscen run -quick -outdir results/ examples/scenarios
//	ccscen batch batchfile.json
//	ccscen batch - < batchfile.json
//	ccscen optimize examples/scenarios/optimize/budget-cluster-mix.json
//	ccscen optimize -ndjson spec.json > frontier.ndjson
//	ccscen perf examples/scenarios/perfab/hetero-node-failures.json
//	ccscen fleet examples/scenarios/fleetsim/repair-crew-split.json
//	ccscen validate examples/scenarios
//	ccscen list examples/scenarios
//
// The scenario file format, the batch request/NDJSON stream formats,
// the optimizer's SearchSpec format and the performability/fleetsim
// blocks are documented in README.md. `ccscen batch`, `ccscen
// optimize`, `ccscen perf` and `ccscen fleet` evaluate the same
// documents POST /v1/batch, /v1/optimize, /v1/performability and
// /v1/fleetsim accept, through the same engine and result cache,
// without a server. `ccscen validate` is kind-aware: it walks
// directories recursively and checks scenario, fleetsim and optimize
// documents each against its own schema.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/ccnet/ccnet/internal/fleetsim"
	"github.com/ccnet/ccnet/internal/optimize"
	"github.com/ccnet/ccnet/internal/perfab"
	"github.com/ccnet/ccnet/internal/scenario"
	"github.com/ccnet/ccnet/internal/service"
	"github.com/ccnet/ccnet/internal/version"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches verbs; split from main so the table-driven CLI tests
// can exercise exit codes and usage output without exec'ing.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "run":
		return runCmd(args[1:], stdout, stderr)
	case "batch":
		return batchCmd(args[1:], stdout, stderr)
	case "optimize":
		return optimizeCmd(args[1:], stdout, stderr)
	case "perf":
		return perfCmd(args[1:], stdout, stderr)
	case "fleet":
		return fleetCmd(args[1:], stdout, stderr)
	case "validate":
		return validateCmd(args[1:], stdout, stderr)
	case "list":
		return listCmd(args[1:], stdout, stderr)
	case "-version", "--version":
		fmt.Fprintln(stdout, version.String("ccscen"))
		return 0
	case "-h", "-help", "--help", "help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "ccscen: unknown verb %q (valid: run, batch, optimize, perf, fleet, validate, list)\n", args[0])
		usage(stderr)
		return 2
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  ccscen run [flags] <file.json|dir> [...]   run scenarios, print results
  ccscen batch <file.json|->                 run a batch request, stream NDJSON
  ccscen optimize [flags] <spec.json|->      search a design space for the
                                             Pareto frontier
  ccscen perf [flags] <file.json|->          failure/repair performability
                                             analysis of a scenario's
                                             performability block
  ccscen fleet [flags] <file.json|->         time-domain fleet simulation of
                                             a scenario's fleetsim timeline
  ccscen validate <file.json|dir> [...]      check scenario, fleetsim and
                                             optimize files (recursive)
  ccscen list [dir]                          summarize a scenario directory
  ccscen -version                            print version and exit

Every verb computes on GOMAXPROCS goroutines in all (the Go runtime's
GOMAXPROCS environment variable sets it); results are identical at any
value.

run flags:
  -quick       reduced simulation message counts (fast, less precise)
  -outdir DIR  write one CSV per scenario into DIR
  -plot        render an ASCII chart of each scenario

optimize flags:
  -ndjson      stream NDJSON progress + frontier lines to stdout (the
               POST /v1/optimize wire format) instead of a table
  -out FILE    also write the full report JSON to FILE

perf flags:
  -ndjson      stream NDJSON progress + result lines to stdout (the
               POST /v1/performability wire format) instead of a table
  -out FILE    also write the full report JSON to FILE

fleet flags:
  -ndjson      stream NDJSON epoch + result lines to stdout (the
               POST /v1/fleetsim wire format) instead of a table
  -out FILE    also write the full report JSON to FILE
`)
}

// batchCmd runs a POST /v1/batch request document offline: items fan
// out on the parallel loop, results stream to stdout as NDJSON in
// item order (identical to the HTTP stream), and repeated specs within
// the batch hit the same canonical-spec result cache the server uses.
func batchCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccscen batch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "ccscen batch: exactly one batch file (or - for stdin) required")
		return 2
	}

	in := io.Reader(os.Stdin)
	name := "<stdin>"
	if arg := fs.Arg(0); arg != "-" {
		f, err := os.Open(arg)
		if err != nil {
			fmt.Fprintln(stderr, "ccscen:", err)
			return 1
		}
		defer f.Close()
		in, name = f, arg
	}
	req, err := service.ParseBatch(in)
	if err != nil {
		fmt.Fprintf(stderr, "ccscen: batch %s: %v\n", name, err)
		return 1
	}

	srv := service.New(service.Options{})
	sum, err := srv.RunBatch(context.Background(), req.Items, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "ccscen:", err)
		return 1
	}
	if sum.Failed > 0 {
		fmt.Fprintf(stderr, "ccscen: %d of %d batch item(s) failed\n", sum.Failed, sum.Items)
		return 1
	}
	return 0
}

// optimizeCmd runs a design-space search offline: candidates fan out on
// the parallel loop, progress goes to stderr, and the Pareto frontier
// prints as a table (or, with -ndjson, the whole run streams to stdout
// in the POST /v1/optimize wire format). The frontier is bit-identical
// for a given spec+seed at any GOMAXPROCS.
func optimizeCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccscen optimize", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ndjson := fs.Bool("ndjson", false, "stream NDJSON progress + frontier lines to stdout")
	outFile := fs.String("out", "", "also write the full report JSON to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "ccscen optimize: exactly one search spec file (or - for stdin) required")
		return 2
	}

	body, spec, err := loadDoc(fs.Arg(0), "searchspec", optimize.Parse)
	if err != nil {
		fmt.Fprintln(stderr, "ccscen:", err)
		return 1
	}
	if *ndjson {
		_, code := streamNDJSON("optimize", body, *outFile, stdout, stderr)
		return code
	}

	start := time.Now()
	eng := &optimize.Engine{Progress: func(p optimize.Progress) {
		fmt.Fprintf(stderr, "optimize: %s %d/%d processed, %d feasible, frontier %d\n",
			p.Method, p.Processed, p.SpaceSize, p.Feasible, p.FrontierSize)
	}}
	rep, err := eng.Run(context.Background(), spec)
	if err != nil {
		fmt.Fprintln(stderr, "ccscen:", err)
		return 1
	}
	renderReport(stdout, rep, time.Since(start))
	return writeReportFile(*outFile, rep, stdout, stderr)
}

// renderReport prints the frontier table and the best configuration.
func renderReport(w io.Writer, rep *optimize.Report, elapsed time.Duration) {
	fmt.Fprintf(w, "search %s: objective=%s method=%s seed=%d\n",
		rep.Name, rep.Objective, rep.Method, rep.Seed)
	fmt.Fprintf(w, "space %d candidates; processed %d, evaluated %d, feasible %d (infeasible: %d structure, %d nodes, %d cost, %d saturation, %d latency, %d availability)\n",
		rep.SpaceSize, rep.Processed, rep.Evaluated, rep.Feasible,
		rep.Infeasible.Structure, rep.Infeasible.Nodes, rep.Infeasible.Cost,
		rep.Infeasible.Saturation, rep.Infeasible.Latency, rep.Infeasible.Availability)

	fmt.Fprintf(w, "\nPareto frontier (%d non-dominated configs):\n", len(rep.Frontier))
	fmt.Fprintf(w, "%-12s %-6s %-4s %-12s %-12s %-12s %s\n",
		"id", "N", "C", "cost", "sat λ", "latency", "@λ")
	for i := range rep.Frontier {
		p := &rep.Frontier[i]
		mark := " "
		if rep.Best != nil && p.ID == rep.Best.ID {
			mark = "*"
		}
		fmt.Fprintf(w, "%-12d %-6d %-4d %-12.6g %-12.6g %-12.6g %.6g %s\n",
			p.ID, p.Nodes, p.Clusters, p.Cost, p.SaturationLambda, p.Latency, p.LatencyLambda, mark)
	}
	if rep.Best != nil {
		cfg, err := json.Marshal(rep.Best.System)
		if err == nil {
			fmt.Fprintf(w, "\nbest (*) by %s: id=%d system=%s\n", rep.Objective, rep.Best.ID, cfg)
		}
	}
	fmt.Fprintf(w, "(search completed in %v)\n", elapsed.Round(time.Millisecond))
}

// loadDoc reads the document arg names (a file, or stdin for "-") and
// parses it with the verb's loader, keeping the bytes for -ndjson, which
// hands them to the service as they are. kind prefixes an open failure
// the way the loaders' Load functions do.
func loadDoc[T any](arg, kind string, parse func(io.Reader, string) (T, error)) ([]byte, T, error) {
	var body []byte
	var err error
	name := "<stdin>"
	if arg == "-" {
		body, err = io.ReadAll(os.Stdin)
	} else {
		name = filepath.Base(arg)
		if body, err = os.ReadFile(arg); err != nil {
			err = fmt.Errorf("%s: %w", kind, err)
		}
	}
	if err != nil {
		var zero T
		return nil, zero, err
	}
	doc, err := parse(bytes.NewReader(body), name)
	return body, doc, err
}

// streamNDJSON answers body through the service exactly as POST
// /v1/<endpoint> does, streaming the NDJSON frames to stdout, and
// returns the result payload after writing it to the -out file (the
// notice goes to stderr: stdout must stay pure NDJSON).
func streamNDJSON(endpoint string, body []byte, outFile string, stdout, stderr io.Writer) ([]byte, int) {
	srv := service.New(service.Options{})
	payload, err := srv.Stream(context.Background(), endpoint, body, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "ccscen:", err)
		return nil, 1
	}
	return payload, writeReportFile(outFile, json.RawMessage(payload), stderr, stderr)
}

// writeReportFile writes the report JSON to path when requested. notice
// receives the "wrote" confirmation.
func writeReportFile(path string, rep any, notice, stderr io.Writer) int {
	if path == "" {
		return 0
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "ccscen:", err)
		return 1
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(stderr, "ccscen:", err)
		return 1
	}
	fmt.Fprintf(notice, "wrote %s\n", path)
	return 0
}

// perfCmd runs a performability analysis offline: a scenario file with
// a performability block is loaded, the availability states fan out on
// the parallel loop, progress goes to stderr, and the report prints as a
// table (or, with -ndjson, streams to stdout in the POST
// /v1/performability wire format). The report is bit-identical for a
// given spec+seed at any GOMAXPROCS.
func perfCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccscen perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ndjson := fs.Bool("ndjson", false, "stream NDJSON progress + result lines to stdout")
	outFile := fs.String("out", "", "also write the full report JSON to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "ccscen perf: exactly one scenario file (or - for stdin) required")
		return 2
	}

	body, spec, err := loadDoc(fs.Arg(0), "scenario", scenario.Parse)
	if err != nil {
		fmt.Fprintln(stderr, "ccscen:", err)
		return 1
	}
	if spec.Performability == nil {
		fmt.Fprintf(stderr, "ccscen: scenario %s has no performability block\n", spec.Name)
		return 1
	}
	if *ndjson {
		_, code := streamNDJSON("performability", body, *outFile, stdout, stderr)
		return code
	}

	study, err := spec.PerformabilityStudy()
	if err != nil {
		fmt.Fprintln(stderr, "ccscen:", err)
		return 1
	}
	start := time.Now()
	eng := &perfab.Engine{Progress: func(p perfab.Progress) {
		fmt.Fprintf(stderr, "perf: %s %d/%d states evaluated, %d down\n",
			p.Method, p.Evaluated, p.States, p.Down)
	}}
	rep, err := eng.Run(context.Background(), study)
	if err != nil {
		fmt.Fprintln(stderr, "ccscen:", err)
		return 1
	}
	renderPerfReport(stdout, rep, time.Since(start))
	return writeReportFile(*outFile, rep, stdout, stderr)
}

// renderPerfReport prints the performability summary tables.
func renderPerfReport(w io.Writer, rep *perfab.Report, elapsed time.Duration) {
	fmt.Fprintf(w, "performability %s: method=%s seed=%d probe λ=%.6g\n",
		rep.Name, rep.Method, rep.Seed, rep.ProbeLambda)
	fmt.Fprintf(w, "state space %.6g; evaluated %d states covering %.6g of the probability mass\n",
		rep.StateSpace, rep.StatesEvaluated, rep.CoveredProbability)

	fmt.Fprintf(w, "\nfailure classes:\n")
	fmt.Fprintf(w, "%-26s %-8s %-14s %s\n", "class", "count", "availability", "E[failed]")
	for _, c := range rep.Classes {
		fmt.Fprintf(w, "%-26s %-8d %-14.6g %.6g\n", c.Label, c.Count, c.Availability, c.ExpectedFailed)
	}

	fmt.Fprintf(w, "\n%-26s %-14s %s\n", "metric", "nominal", "expected")
	fmt.Fprintf(w, "%-26s %-14.6g %.6g\n", "latency @ probe", rep.Nominal.Latency, rep.ExpectedLatency)
	fmt.Fprintf(w, "%-26s %-14.6g %.6g\n", "saturation λ*", rep.Nominal.SaturationLambda, rep.ExpectedSaturation)
	fmt.Fprintf(w, "%-26s %-14.6g %.6g\n", "capacity (msgs/t)", rep.Nominal.Capacity, rep.ExpectedCapacity)
	fmt.Fprintf(w, "%-26s %-14.6g %.6g\n", "served fraction", 1.0, rep.ExpectedServedFraction)
	fmt.Fprintf(w, "\navailability %.8g, P(SLO violation) %.6g, P(probe servable) %.6g\n",
		rep.Availability, rep.SLOViolation, rep.LatencyFiniteProbability)

	if len(rep.Percentiles) > 0 {
		fmt.Fprintf(w, "\ncapacity percentiles (largest capacity delivered with probability >= q):\n")
		for _, p := range rep.Percentiles {
			fmt.Fprintf(w, "  q=%-6g capacity %.6g\n", p.Q, p.Capacity)
		}
	}
	if len(rep.TopStates) > 0 {
		fmt.Fprintf(w, "\ntop states by probability:\n")
		fmt.Fprintf(w, "%-12s %-6s %-8s %-12s %s\n", "weight", "up", "served", "capacity", "latency")
		for _, s := range rep.TopStates {
			lat := "saturated"
			if s.Latency != nil {
				lat = fmt.Sprintf("%.6g", *s.Latency)
			}
			fmt.Fprintf(w, "%-12.6g %-6t %-8.4g %-12.6g %s\n", s.Weight, s.Up, s.ServedFraction, s.Capacity, lat)
		}
	}
	fmt.Fprintf(w, "(analysis completed in %v)\n", elapsed.Round(time.Millisecond))
}

// fleetCmd runs a time-domain fleet simulation offline: a scenario file
// with a fleetsim block is loaded, the trajectory's unique states fan
// out on the parallel loop, and the report prints as a table (or, with
// -ndjson, streams to stdout in the POST /v1/fleetsim wire format). The
// report is bit-identical for a given spec+seed at any GOMAXPROCS. Exit
// status 1 when any fleet assertion fails, so CI can gate on
// recovery envelopes directly.
func fleetCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccscen fleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ndjson := fs.Bool("ndjson", false, "stream NDJSON epoch + result lines to stdout")
	outFile := fs.String("out", "", "also write the full report JSON to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "ccscen fleet: exactly one scenario file (or - for stdin) required")
		return 2
	}

	body, spec, err := loadDoc(fs.Arg(0), "scenario", scenario.Parse)
	if err != nil {
		fmt.Fprintln(stderr, "ccscen:", err)
		return 1
	}
	if spec.FleetSim == nil {
		fmt.Fprintf(stderr, "ccscen: scenario %s has no fleetsim block\n", spec.Name)
		return 1
	}
	if *ndjson {
		payload, code := streamNDJSON("fleetsim", body, *outFile, stdout, stderr)
		if code != 0 {
			return code
		}
		var rep fleetsim.Report
		if err := json.Unmarshal(payload, &rep); err != nil {
			fmt.Fprintln(stderr, "ccscen:", err)
			return 1
		}
		return fleetExitCode(&rep, stderr)
	}

	study, err := spec.FleetStudy()
	if err != nil {
		fmt.Fprintln(stderr, "ccscen:", err)
		return 1
	}
	start := time.Now()
	rep, err := (&fleetsim.Engine{}).Run(context.Background(), study)
	if err != nil {
		fmt.Fprintln(stderr, "ccscen:", err)
		return 1
	}
	renderFleetReport(stdout, rep, time.Since(start))
	if code := writeReportFile(*outFile, rep, stdout, stderr); code != 0 {
		return code
	}
	return fleetExitCode(rep, stderr)
}

// fleetExitCode maps failed assertions to exit status 1.
func fleetExitCode(rep *fleetsim.Report, stderr io.Writer) int {
	if rep.FailedAssertions == 0 {
		return 0
	}
	fmt.Fprintf(stderr, "ccscen: %d of %d fleet assertion(s) failed\n",
		rep.FailedAssertions, len(rep.Assertions))
	return 1
}

// renderFleetReport prints the trajectory summary tables.
func renderFleetReport(w io.Writer, rep *fleetsim.Report, elapsed time.Duration) {
	fmt.Fprintf(w, "fleet %s: seed=%d horizon=%.6g epoch=%.6g probe λ=%.6g stochastic=%t\n",
		rep.Name, rep.Seed, rep.Horizon, rep.Epoch, rep.ProbeLambda, rep.Stochastic)
	fmt.Fprintf(w, "trajectory: %d epochs, %d stochastic transitions, %d unique states\n",
		len(rep.Epochs), rep.Transitions, rep.UniqueStates)

	if len(rep.Timeline) > 0 {
		fmt.Fprintf(w, "\ntimeline (as applied):\n")
		for _, ev := range rep.Timeline {
			if ev.Action == "set_lambda" {
				fmt.Fprintf(w, "  t=%-10.6g %-16s λ=%.6g\n", ev.At, ev.Action, ev.Lambda)
				continue
			}
			fmt.Fprintf(w, "  t=%-10.6g %-16s %-24s requested %d, applied %d\n",
				ev.At, ev.Action, ev.Class, ev.Requested, ev.Applied)
		}
	}

	fmt.Fprintf(w, "\n%-6s %-12s %-8s %-8s %-10s %-12s %-12s %s\n",
		"epoch", "t0", "failed", "up", "served", "latency", "sat λ", "capacity")
	for i := range rep.Epochs {
		ep := &rep.Epochs[i]
		failed := 0
		for _, f := range ep.Failed {
			failed += f
		}
		lat := "saturated"
		if ep.Latency != nil {
			lat = fmt.Sprintf("%.6g", *ep.Latency)
		}
		fmt.Fprintf(w, "%-6d %-12.6g %-8d %-8.4g %-10.6g %-12s %-12.6g %.6g\n",
			ep.Index, ep.T0, failed, ep.UpFraction, ep.ServedFraction, lat,
			ep.SaturationLambda, ep.Capacity)
	}

	lr := &rep.LongRun
	fmt.Fprintf(w, "\nlong-run (time-weighted over the horizon):\n")
	fmt.Fprintf(w, "  availability %.8g, E[latency] %.6g, E[served] %.6g\n",
		lr.Availability, lr.ExpectedLatency, lr.ExpectedServedFraction)
	fmt.Fprintf(w, "  E[sat λ] %.6g, E[capacity] %.6g, P(SLO violation) %.6g, P(probe servable) %.6g\n",
		lr.ExpectedSaturation, lr.ExpectedCapacity, lr.SLOViolation, lr.LatencyFiniteProbability)

	if len(rep.Assertions) > 0 {
		fmt.Fprintf(w, "\nassertions:\n")
		for _, a := range rep.Assertions {
			status := "PASS"
			if !a.Passed {
				status = "FAIL"
			}
			window := ""
			if a.From != 0 || a.To != 0 {
				window = fmt.Sprintf(" in [%.6g, %.6g]", a.From, a.To)
			}
			fmt.Fprintf(w, "  %-22s %-6.6g %s  observed %.6g%s\n", a.Check, a.Value, status, a.Observed, window)
		}
	}
	fmt.Fprintf(w, "(simulation completed in %v)\n", elapsed.Round(time.Millisecond))
}

func runCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccscen run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "reduced simulation message counts (fast, less precise)")
	outdir := fs.String("outdir", "", "write one CSV per scenario into this directory")
	plot := fs.Bool("plot", false, "render an ASCII chart of each scenario")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "ccscen run: at least one scenario file or directory required")
		return 2
	}

	specs, err := scenario.LoadAll(fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "ccscen:", err)
		return 1
	}
	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			fmt.Fprintln(stderr, "ccscen:", err)
			return 1
		}
	}

	start := time.Now()
	r := &scenario.Runner{Quick: *quick}
	outcomes := r.Run(specs)

	failures := 0
	for _, o := range outcomes {
		if !o.Passed() {
			failures++
		}
		if o.Err != nil {
			fmt.Fprintf(stderr, "ccscen: scenario %s failed: %v\n", o.Spec.Name, o.Err)
			continue
		}
		if err := scenario.Render(stdout, o.Result); err != nil {
			fmt.Fprintln(stderr, "ccscen:", err)
			return 1
		}
		if *plot {
			if err := scenario.RenderChart(stdout, o.Result, 72, 22); err != nil {
				fmt.Fprintln(stderr, "ccscen:", err)
				return 1
			}
		}
		for _, a := range o.Assertions {
			status := "PASS"
			if !a.Pass {
				status = "FAIL"
			}
			fmt.Fprintf(stdout, "assert %-12s %s  %s\n", a.Spec.Type, status, a.Detail)
		}
		fmt.Fprintf(stdout, "(%s completed in %v)\n\n", o.Spec.Name, o.Elapsed.Round(time.Millisecond))
		if *outdir != "" {
			path := filepath.Join(*outdir, o.Spec.Name+".csv")
			if err := writeCSV(path, o.Result); err != nil {
				fmt.Fprintln(stderr, "ccscen:", err)
				return 1
			}
			fmt.Fprintf(stdout, "wrote %s\n\n", path)
		}
	}
	fmt.Fprintf(stdout, "campaign: %d scenario(s), %d failed, %v total\n",
		len(outcomes), failures, time.Since(start).Round(time.Millisecond))
	if failures > 0 {
		return 1
	}
	return 0
}

func writeCSV(path string, res *scenario.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := scenario.WriteCSV(f, res); err != nil {
		return err
	}
	return f.Close()
}

// validateCmd checks documents without running them. Directories are
// walked recursively so one invocation covers a whole examples tree,
// and each file is dispatched by its "kind" field: optimize search
// specs go through the optimizer's loader, everything else (plain
// scenarios and kind "fleetsim") through the scenario loader. Every
// broken file is reported — one bad spec does not hide the rest.
func validateCmd(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "ccscen validate: at least one scenario file or directory required")
		return 2
	}
	paths, err := collectSpecFiles(args)
	if err != nil {
		fmt.Fprintln(stderr, "ccscen:", err)
		return 1
	}
	bad := 0
	for _, p := range paths {
		doc, err := loadSpecFile(p)
		if err != nil {
			fmt.Fprintf(stderr, "ccscen: %s: %v\n", p, err)
			bad++
			continue
		}
		fmt.Fprintf(stdout, "ok: %s\n", doc.name)
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// collectSpecFiles expands the arguments — files taken as-is,
// directories walked recursively for *.json — into one sorted list, so
// validation order is reproducible regardless of argument order.
func collectSpecFiles(args []string) ([]string, error) {
	var paths []string
	for _, arg := range args {
		info, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			paths = append(paths, arg)
			continue
		}
		before := len(paths)
		err = filepath.WalkDir(arg, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(d.Name(), ".json") {
				paths = append(paths, p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if len(paths) == before {
			return nil, fmt.Errorf("no *.json files under %s", arg)
		}
	}
	sort.Strings(paths)
	return paths, nil
}

// specDoc is what validate and list report of one document.
type specDoc struct {
	kind, name, title, description string
}

// loadSpecFile loads one document through the loader its kind selects,
// dry-building systems where the schema alone cannot see structural
// constraints (C = 2(m/2)^n).
func loadSpecFile(path string) (specDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return specDoc{}, err
	}
	// Sniff only the kind; malformed JSON falls through to the kind's
	// own loader, whose decode errors carry field paths.
	var sniff struct {
		Kind string `json:"kind"`
	}
	_ = json.Unmarshal(b, &sniff)
	if sniff.Kind == "optimize" {
		spec, err := optimize.Parse(bytes.NewReader(b), filepath.Base(path))
		if err != nil {
			return specDoc{}, err
		}
		return specDoc{"optimize", spec.Name, spec.Title, spec.Description}, nil
	}
	spec, err := scenario.Parse(bytes.NewReader(b), filepath.Base(path))
	if err != nil {
		return specDoc{}, err
	}
	if _, err := spec.BuildSystem(); err != nil {
		return specDoc{}, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}
	kind := spec.Kind
	if kind == "" {
		kind = "scenario"
	}
	return specDoc{kind, spec.Name, spec.Title, spec.Description}, nil
}

// listCmd prints one line per document under a directory, walked and
// loaded exactly as validate does: its path relative to the directory,
// its kind, its name and its description (the title when it has none).
// Broken files are listed with their load error, so list doubles as a
// directory health check.
func listCmd(args []string, stdout, stderr io.Writer) int {
	dir := "examples/scenarios"
	if len(args) > 0 {
		dir = args[0]
	}
	paths, err := collectSpecFiles([]string{dir})
	if err != nil {
		fmt.Fprintln(stderr, "ccscen:", err)
		return 1
	}
	for _, p := range paths {
		rel, err := filepath.Rel(dir, p)
		if err != nil || rel == "." {
			rel = filepath.Base(p)
		}
		doc, err := loadSpecFile(p)
		if err != nil {
			fmt.Fprintf(stdout, "%-40s INVALID: %v\n", rel, err)
			continue
		}
		desc := doc.description
		if desc == "" {
			desc = doc.title
		}
		fmt.Fprintf(stdout, "%-40s %-8s %-28s %s\n", rel, doc.kind, doc.name, desc)
	}
	return 0
}
