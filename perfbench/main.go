// Command perfbench is the repository benchmark. It starts the serving
// tier in-process on loopback, drives one named workload from a seeded
// request plan, checks every answer, and prints every metric by name with
// its unit and sample count. The last line of its output is one JSON
// object: the end-to-end metrics with tracing off (-trace 0), or the
// per-layer metrics of the traced layer ladder (-trace 1).
//
//	perfbench -workload hot-routed -seed 1 -seconds 30 -trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: hot-routed, mixed-direct or cold-direct")
	seed := fs.Uint64("seed", 1, "seed of the request plan")
	seconds := fs.Int("seconds", 30, "measuring time of the run")
	trace := fs.Int("trace", 0, "1 runs the traced layer ladder and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("seconds must be at least 1, got %d", *seconds)
	}
	dur := time.Duration(*seconds) * time.Second
	plan := newPlan(w, *seed, dur)
	fmt.Printf("workload %s  seed %d  plan %s  (%d requests, %d distinct specs)\n",
		w.name, *seed, plan.SHA, plan.requests(), len(plan.Specs))

	rep := newReport()
	var ck *checker
	names := endToEnd
	if *trace == 1 {
		ck, err = runTraced(w, plan, rep)
		names = perLayer
	} else {
		ck, err = runUntraced(w, plan, rep)
	}
	if err != nil {
		return err
	}
	digest, err := ck.verify()
	if err != nil {
		return err
	}
	rep.table(os.Stdout)
	fmt.Printf("answers: %d attempted, %d failed, correct %v; digest %s over %d first answers\n",
		ck.attempted, ck.failed, ck.failed == 0, digest, len(plan.checkSet(ck.checkN)))
	for _, l := range ck.failureLines() {
		fmt.Println(l)
	}
	line, err := rep.resultLine(names, ck, ck.failed == 0)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func (p *Plan) requests() int { return len(p.First.Reqs) + len(p.Search) }
