// Command ccload is the sustained-load harness for ccserved: it
// generates a deterministic request sequence (same -seed → byte-
// identical specs), drives it open-loop (Poisson arrivals at -rps) or
// closed-loop (-closed with -workers and -think) against an in-process
// server or a remote -url, and writes an NDJSON artifact with achieved
// RPS, error rate and p50/p90/p99/p999 latency.
//
// Verbs:
//
//	ccload run [flags]     one load run, NDJSON artifact to stdout/-out
//	ccload sweep [flags]   a load matrix (endpoints × rps × dup), with
//	                       optional baseline comparison for CI
//
// Examples:
//
//	ccload run -endpoints evaluate -n 500 -rps 200 -dup 0.3 -seed 7
//	ccload run -endpoints evaluate:4,sweep:1 -n 200 -closed -workers 16
//	ccload run -n 100 -dry-run -seed 7        # print the sequence only
//	ccload run -url http://localhost:8080 -n 1000 -rps 500
//	ccload sweep -n 200 -rps 100,300 -dup 0.3 -endpoints evaluate,sweep \
//	    -baseline LOADBASE.json -min-rps-pct 60 -max-p99-pct 150
//	ccload sweep -n 200 -rps 100,300 -dup 0.3 -endpoints evaluate,sweep \
//	    -write-baseline LOADBASE.json
//
// Without -url both verbs spin up the full ccserved handler in-process
// (no sockets), which is how CI load-tests hermetically.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/ccnet/ccnet/internal/load"
	"github.com/ccnet/ccnet/internal/reqtrace"
	"github.com/ccnet/ccnet/internal/routertest"
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
	case "sweep":
		return sweepCmd(args[1:], stdout, stderr)
	case "-version", "--version":
		fmt.Fprintln(stdout, version.String("ccload"))
		return 0
	case "-h", "-help", "--help", "help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "ccload: unknown verb %q (valid: run, sweep)\n", args[0])
		usage(stderr)
		return 2
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  ccload run [flags]     one load run, NDJSON artifact to stdout/-out
  ccload sweep [flags]   a load matrix with optional baseline gate
  ccload -version        print version and exit

run flags:
  -endpoints MIX  endpoint mix: "evaluate" or "evaluate:4,sweep:1"
                  (valid: evaluate, sweep, healthz, stats; default evaluate)
  -n N            total requests (default 200)
  -seed S         spec-sequence seed; same seed → byte-identical specs
  -dup P          probability a request reuses an earlier spec (default 0.3)
  -pool K         distinct specs per endpoint pool (default 64)
  -rps R          open loop: target requests/second (default 200)
  -closed         closed loop instead: -workers each issue back to back
  -workers W      closed loop: concurrent workers (default 8)
  -think D        closed loop: mean think time, e.g. 10ms (default 0)
  -url URL        drive a remote server instead of in-process
  -routed K       drive an in-process K-replica cluster behind ccrouter
                  instead of a single in-process server
  -out FILE       write the NDJSON artifact to FILE instead of stdout
  -dry-run        print the generated sequence and its SHA, send nothing

sweep flags:
  -endpoints LIST  comma-separated endpoints, one axis value each
                   (default evaluate,sweep)
  -rps LIST        comma-separated open-loop rates (default 100,300)
  -dup LIST        comma-separated duplication rates (default 0.3)
  -n N             requests per cell (default 200)
  -seed S          base seed; cells derive their own
  -pool K          distinct specs per endpoint pool (default 64)
  -url URL         drive a remote server (default: fresh in-process
                   server per cell)
  -routed K        drive a shared in-process K-replica routed cluster
  -out FILE        write the sweep report JSON to FILE
  -baseline FILE   compare against FILE; violations exit 1
  -min-rps-pct P   achieved rps must be ≥ P%% of baseline (default 60)
  -max-p99-pct P   p99 may exceed baseline by at most P%% (default 150)
  -write-baseline FILE  write FILE from this sweep instead of comparing
`)
}

// newFlagSet builds a flag set that reports usage errors on stderr and
// exits 2 like the other cc* tools.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

func runCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("ccload run", stderr)
	endpoints := fs.String("endpoints", "evaluate", "endpoint mix")
	n := fs.Int("n", 200, "total requests")
	seed := fs.Uint64("seed", 1, "spec-sequence seed")
	dup := fs.Float64("dup", 0.3, "duplication rate")
	pool := fs.Int("pool", 64, "distinct specs per endpoint")
	rps := fs.Float64("rps", 200, "open-loop target rate")
	closed := fs.Bool("closed", false, "closed-loop mode")
	workers := fs.Int("workers", 8, "closed-loop workers")
	think := fs.Duration("think", 0, "closed-loop mean think time")
	url := fs.String("url", "", "remote server URL")
	routed := fs.Int("routed", 0, "replicas behind an in-process router")
	out := fs.String("out", "", "artifact file")
	dryRun := fs.Bool("dry-run", false, "print the sequence, send nothing")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "ccload run: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *url != "" && *routed > 0 {
		fmt.Fprintln(stderr, "ccload run: -url and -routed are mutually exclusive")
		return 2
	}

	mix, err := load.ParseMix(*endpoints)
	if err != nil {
		fmt.Fprintf(stderr, "ccload run: %v\n", err)
		return 2
	}
	gen := load.GenConfig{Mix: mix, N: *n, Seed: *seed, DupRate: *dup, Pool: *pool}
	plan, err := load.Generate(gen)
	if err != nil {
		fmt.Fprintf(stderr, "ccload run: %v\n", err)
		return 2
	}

	dst := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "ccload run: %v\n", err)
			return 1
		}
		defer f.Close()
		dst = f
	}

	if *dryRun {
		if err := load.WritePlan(dst, plan); err != nil {
			fmt.Fprintf(stderr, "ccload run: %v\n", err)
			return 1
		}
		return 0
	}

	target, targetName, cleanup, err := makeTarget(*url, *routed)
	if err != nil {
		fmt.Fprintf(stderr, "ccload run: %v\n", err)
		return 1
	}
	if cleanup != nil {
		defer cleanup()
	}
	opts := load.Options{
		Target: target, Plan: plan, Seed: *seed,
		Closed: *closed, RPS: *rps, Workers: *workers, ThinkMean: *think,
	}
	results, sum, err := load.Run(context.Background(), opts)
	if err != nil {
		fmt.Fprintf(stderr, "ccload run: %v\n", err)
		return 1
	}
	meta := load.Meta{
		Version: version.Version, Target: targetName, Gen: gen,
		Mode: sum.Mode, RPS: *rps, SpecSHA: plan.SHA,
	}
	if *closed {
		meta.RPS = 0
		meta.Workers = *workers
		meta.ThinkSecs = think.Seconds()
	}
	if err := load.WriteArtifact(dst, meta, results, sum); err != nil {
		fmt.Fprintf(stderr, "ccload run: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "ccload: %d requests, %.1f rps achieved, p50 %.3fms p99 %.3fms, %d errors\n",
		sum.Requests, sum.AchievedRPS, sum.P50Seconds*1e3, sum.P99Seconds*1e3, sum.Errors)
	if len(sum.Stages) > 0 {
		names := make([]string, 0, len(sum.Stages))
		for name := range sum.Stages {
			names = append(names, name)
		}
		sort.Strings(names)
		parts := make([]string, len(names))
		for i, name := range names {
			st := sum.Stages[name]
			parts[i] = fmt.Sprintf("%s mean %.3fms p99 %.3fms (n=%d)", name, st.MeanMs, st.P99Ms, st.Count)
		}
		fmt.Fprintf(stderr, "ccload: stages: %s\n", strings.Join(parts, "; "))
	}
	return 0
}

func sweepCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("ccload sweep", stderr)
	endpoints := fs.String("endpoints", "evaluate,sweep", "endpoint axis")
	rpsList := fs.String("rps", "100,300", "rps axis")
	dupList := fs.String("dup", "0.3", "duplication-rate axis")
	n := fs.Int("n", 200, "requests per cell")
	seed := fs.Uint64("seed", 1, "base seed")
	pool := fs.Int("pool", 64, "distinct specs per endpoint")
	url := fs.String("url", "", "remote server URL")
	routed := fs.Int("routed", 0, "replicas behind an in-process router")
	out := fs.String("out", "", "report file")
	baseline := fs.String("baseline", "", "baseline file to compare against")
	minRPSPct := fs.Float64("min-rps-pct", 60, "achieved-rps floor, % of baseline")
	maxP99Pct := fs.Float64("max-p99-pct", 150, "p99 ceiling, % above baseline")
	writeBaseline := fs.String("write-baseline", "", "write a new baseline instead of comparing")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "ccload sweep: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *baseline != "" && *writeBaseline != "" {
		fmt.Fprintln(stderr, "ccload sweep: -baseline and -write-baseline are mutually exclusive")
		return 2
	}
	if *url != "" && *routed > 0 {
		fmt.Fprintln(stderr, "ccload sweep: -url and -routed are mutually exclusive")
		return 2
	}

	rpsAxis, err := parseFloats(*rpsList)
	if err != nil {
		fmt.Fprintf(stderr, "ccload sweep: -rps: %v\n", err)
		return 2
	}
	dupAxis, err := parseFloats(*dupList)
	if err != nil {
		fmt.Fprintf(stderr, "ccload sweep: -dup: %v\n", err)
		return 2
	}
	var eps []string
	for _, e := range strings.Split(*endpoints, ",") {
		if e = strings.TrimSpace(e); e != "" {
			eps = append(eps, e)
		}
	}
	cfg := load.SweepConfig{Endpoints: eps, RPS: rpsAxis, DupRates: dupAxis, N: *n, Seed: *seed, Pool: *pool}

	// A remote or routed target is shared across cells (one server, one
	// cluster); the in-process default gets a fresh server per cell so
	// cache state cannot leak between cells.
	newTarget := func() load.Target {
		t, _, _, _ := makeTarget("", 0)
		return t
	}
	switch {
	case *url != "":
		shared := load.NewHTTPTarget(*url)
		newTarget = func() load.Target { return shared }
	case *routed > 0:
		shared, _, cleanup, err := makeTarget("", *routed)
		if err != nil {
			fmt.Fprintf(stderr, "ccload sweep: %v\n", err)
			return 1
		}
		defer cleanup()
		newTarget = func() load.Target { return shared }
	}

	start := time.Now()
	rep, err := load.RunSweep(context.Background(), cfg, newTarget, func(c load.Cell) {
		fmt.Fprintf(stderr, "ccload: %-28s achieved %.1f rps, p99 %.3fms, %d errors\n",
			c.Key(), c.Summary.AchievedRPS, c.Summary.P99Seconds*1e3, c.Summary.Errors)
	})
	if err != nil {
		fmt.Fprintf(stderr, "ccload sweep: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "ccload: sweep of %d cells in %.1fs\n", len(rep.Cells), time.Since(start).Seconds())

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "ccload sweep: %v\n", err)
			return 1
		}
		if err := writeReport(f, rep); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "ccload sweep: %v\n", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(stderr, "ccload sweep: %v\n", err)
			return 1
		}
	} else if err := writeReport(stdout, rep); err != nil {
		fmt.Fprintf(stderr, "ccload sweep: %v\n", err)
		return 1
	}

	if *writeBaseline != "" {
		f, err := os.Create(*writeBaseline)
		if err != nil {
			fmt.Fprintf(stderr, "ccload sweep: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := load.WriteBaseline(f, load.BaselineFromReport(rep)); err != nil {
			fmt.Fprintf(stderr, "ccload sweep: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "ccload: baseline written to %s\n", *writeBaseline)
		return 0
	}
	if *baseline != "" {
		base, err := load.ReadBaseline(*baseline)
		if err != nil {
			fmt.Fprintf(stderr, "ccload sweep: %v\n", err)
			return 1
		}
		if violations := load.Compare(rep, base, *minRPSPct, *maxP99Pct); len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintf(stderr, "ccload: REGRESSION %s\n", v)
			}
			return 1
		}
		fmt.Fprintf(stderr, "ccload: all %d cells within baseline thresholds\n", len(rep.Cells))
	}
	return 0
}

// makeTarget returns the load target: a remote client for url, a live
// routed cluster for routed > 0 (cleanup tears it down), else the full
// ccserved handler in-process. In-process targets run with tracing on
// (sample everything) so every response carries the Server-Timing
// stage breakdown the artifact and summary report; a remote server
// decides its own tracing via its -trace-* flags.
func makeTarget(url string, routed int) (load.Target, string, func(), error) {
	if url != "" {
		return load.NewHTTPTarget(url), url, nil, nil
	}
	if routed > 0 {
		c, err := routertest.Start(routertest.Config{
			Replicas:      routed,
			ProbeInterval: 250 * time.Millisecond,
			Trace:         true,
		})
		if err != nil {
			return nil, "", nil, err
		}
		return load.NewHTTPTarget(c.BaseURL()), fmt.Sprintf("routed:%d", routed), c.Close, nil
	}
	srv := service.New(service.Options{
		Tracer: reqtrace.New(reqtrace.Options{Component: "service"}),
	})
	return load.HandlerTarget{Handler: srv.Handler()}, "in-process", nil, nil
}

func writeReport(w io.Writer, rep *load.Report) error {
	return load.WriteSweepReport(w, rep)
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
