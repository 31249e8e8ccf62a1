// Command ccexp regenerates the paper's tables and figures (ccexp -h
// lists the experiment ids) and writes CSV and/or human-readable
// output.
//
// Examples:
//
//	ccexp -exp table1
//	ccexp -exp fig3 -csv fig3.csv
//	ccexp -exp fig7
//	ccexp -exp all -quick -outdir results/
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/ccnet/ccnet/internal/experiments"
	"github.com/ccnet/ccnet/internal/version"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses flags and dispatches; split from main so the table-driven
// CLI tests can exercise exit codes and usage output without exec'ing.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp         = fs.String("exp", "", "experiment: table1, table2, fig3..fig7, ablation, nonuniform, bufferdepth, all")
		csvPath     = fs.String("csv", "", "write CSV to this file")
		outdir      = fs.String("outdir", "", "with -exp all: write one CSV per experiment here")
		quick       = fs.Bool("quick", false, "reduced message counts (fast, less precise)")
		warmup      = fs.Uint64("warmup", 0, "override warm-up message count")
		measure     = fs.Uint64("measure", 0, "override measured message count")
		seed        = fs.Uint64("seed", 1, "random seed")
		reps        = fs.Int("reps", 0, "simulation replications per point (t-based CI)")
		plot        = fs.Bool("plot", false, "render an ASCII chart of each figure")
		showVersion = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *showVersion {
		fmt.Fprintln(stdout, version.String("ccexp"))
		return 0
	}

	opt := experiments.RunOptions{Seed: *seed, WarmupCount: *warmup, MeasureCount: *measure, Replications: *reps}
	if *quick && *warmup == 0 && *measure == 0 {
		opt.WarmupCount, opt.MeasureCount = 2000, 15000
	}

	switch *exp {
	case "table1":
		fmt.Fprint(stdout, experiments.Table1())
		return 0
	case "table2":
		fmt.Fprint(stdout, experiments.Table2(256))
		return 0
	case "all":
		fmt.Fprint(stdout, experiments.Table1())
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, experiments.Table2(256))
		fmt.Fprintln(stdout)
		for _, id := range sortedIDs() {
			if code := runOne(id, opt, csvForID(*outdir, id), *plot, stdout, stderr); code != 0 {
				return code
			}
		}
		return 0
	case "":
		fmt.Fprintf(stderr, "ccexp: -exp is required (table1, table2, all, %s)\n",
			strings.Join(sortedIDs(), ", "))
		fs.Usage()
		return 2
	default:
		if experiments.All()[*exp] == nil {
			fmt.Fprintf(stderr, "ccexp: unknown experiment %q\n", *exp)
			fmt.Fprintf(stderr, "valid experiments: table1, table2, all, %s\n", strings.Join(sortedIDs(), ", "))
			fmt.Fprintln(stderr, "for configurations beyond the paper's figures, describe them as scenario files and run `ccscen run <file.json>` (see examples/scenarios/)")
			return 2
		}
		return runOne(*exp, opt, *csvPath, *plot, stdout, stderr)
	}
}

// sortedIDs returns the experiment ids in stable order.
func sortedIDs() []string {
	ids := make([]string, 0, len(experiments.All()))
	for id := range experiments.All() {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func csvForID(outdir, id string) string {
	if outdir == "" {
		return ""
	}
	return filepath.Join(outdir, id+".csv")
}

func runOne(id string, opt experiments.RunOptions, csvPath string, plot bool, stdout, stderr io.Writer) int {
	start := time.Now()
	res, err := experiments.All()[id](opt)
	if err != nil {
		fmt.Fprintf(stderr, "ccexp: %s: %v\n", id, err)
		return 1
	}
	if err := experiments.Render(stdout, res); err != nil {
		fmt.Fprintln(stderr, "ccexp:", err)
		return 1
	}
	if plot {
		if err := experiments.RenderChart(stdout, res, 72, 22); err != nil {
			fmt.Fprintln(stderr, "ccexp:", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	if csvPath != "" {
		if err := writeCSV(csvPath, res); err != nil {
			fmt.Fprintln(stderr, "ccexp:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", csvPath)
	}
	return 0
}

func writeCSV(path string, res *experiments.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := experiments.WriteCSV(f, res); err != nil {
		return err
	}
	return f.Close()
}
