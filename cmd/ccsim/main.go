// Command ccsim runs the discrete-event cluster-of-clusters simulator at
// one traffic rate and reports measured latency statistics, each
// branch's latency split by stage (source wait, network transfers, and
// the gateways' concentrator and dispatcher waits), and bottleneck
// utilizations.
//
// Examples:
//
//	ccsim -system 1120 -lambda 2e-4 -flits 32 -flitbytes 256
//	ccsim -system 544 -lambda 5e-4 -measure 100000 -warmup 10000
//	ccsim -system 544 -lambda 3e-4 -pattern hotspot -hotspot-p 0.1
//	ccsim -system 1120 -lambda 1e-4 -top-channels 10
//
// Near the knee (ccsim -system 544 -lambda 4.5e-4 -seed 29) the inter
// stage line shows the paper's bottleneck: the concentrator wait for
// the gateway's ICN2 port outgrows every other stage.
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"github.com/ccnet/ccnet/internal/cluster"
	"github.com/ccnet/ccnet/internal/netchar"
	"github.com/ccnet/ccnet/internal/sim"
	"github.com/ccnet/ccnet/internal/stats"
	"github.com/ccnet/ccnet/internal/traffic"
	"github.com/ccnet/ccnet/internal/version"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses flags and simulates; split from main so the table-driven
// CLI tests can exercise exit codes and usage output without exec'ing.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		system      = fs.String("system", "1120", "system organization: 1120, 544 or small")
		lambda      = fs.Float64("lambda", 1e-4, "λ_g: messages per node per time unit")
		flits       = fs.Int("flits", 32, "message length M in flits")
		flitBytes   = fs.Int("flitbytes", 256, "flit size d_m in bytes")
		warmup      = fs.Uint64("warmup", 10000, "warm-up messages (discarded)")
		measure     = fs.Uint64("measure", 100000, "measured messages")
		seed        = fs.Uint64("seed", 1, "random seed")
		pattern     = fs.String("pattern", "uniform", "traffic pattern: uniform, hotspot, local")
		hotspotP    = fs.Float64("hotspot-p", 0.1, "fraction of traffic to the hot node")
		localP      = fs.Float64("local-p", 0.5, "fraction of traffic kept intra-cluster")
		topN        = fs.Int("top-channels", 0, "print the N most utilized channels (equal utilizations in name order)")
		depth       = fs.Int("buffer-depth", 1, "channel input buffer depth in flits (paper: 1)")
		showVersion = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *showVersion {
		fmt.Fprintln(stdout, version.String("ccsim"))
		return 0
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "ccsim:", err)
		return 1
	}
	// sim.Config reads a zero depth as the paper's default of 1, so the
	// flag's own bound is checked here.
	if *depth < 1 {
		return fail(fmt.Errorf("-buffer-depth must be >= 1, got %d", *depth))
	}
	// The traffic patterns panic on a fraction outside [0,1]; a NaN
	// fraction is rejected as well.
	if !(*hotspotP >= 0 && *hotspotP <= 1) {
		return fail(fmt.Errorf("-hotspot-p must be in [0,1], got %v", *hotspotP))
	}
	if !(*localP >= 0 && *localP <= 1) {
		return fail(fmt.Errorf("-local-p must be in [0,1], got %v", *localP))
	}

	sys, err := systemByName(*system)
	if err != nil {
		return fail(err)
	}

	cfg := sim.Config{
		Sys:                sys,
		Msg:                netchar.MessageSpec{Flits: *flits, FlitBytes: *flitBytes},
		Lambda:             *lambda,
		Seed:               *seed,
		WarmupCount:        *warmup,
		MeasureCount:       *measure,
		CollectChannelUtil: *topN > 0,
		BufferDepth:        *depth,
	}
	switch *pattern {
	case "uniform":
	case "hotspot":
		cfg.Pattern = traffic.Hotspot{N: sys.TotalNodes(), Hot: 0, P: *hotspotP}
	case "local":
		sizes := make([]int, sys.NumClusters())
		for i := range sizes {
			sizes[i] = sys.ClusterNodes(i)
		}
		cfg.Pattern = traffic.ClusterLocal{Part: traffic.NewPartition(sizes), PLocal: *localP}
	default:
		return fail(fmt.Errorf("unknown pattern %q", *pattern))
	}

	start := time.Now()
	m, err := sim.Run(cfg)
	if err != nil {
		return fail(err)
	}
	elapsed := time.Since(start)

	fmt.Fprintf(stdout, "system %s (N=%d), λ_g=%.4g, M=%d×%dB, pattern=%s\n",
		sys.Name, sys.TotalNodes(), *lambda, *flits, *flitBytes, *pattern)
	if m.Saturated {
		fmt.Fprintf(stdout, "SATURATED: offered load exceeds capacity (backlog peaked at %d)\n", m.PeakBacklog)
	}
	fmt.Fprintf(stdout, "mean latency : %.3f ± %.3f (95%% CI), sd %.3f\n",
		m.Latency.Mean(), m.Latency.CI95(), m.Latency.StdDev())
	fmt.Fprintf(stdout, "intra        : %s\n", m.Intra.String())
	fmt.Fprintf(stdout, "inter        : %s\n", m.Inter.String())
	fmt.Fprintf(stdout, "intra stages : %s\n", stageMeans(m.IntraStages[:],
		"source wait", "ICN1"))
	fmt.Fprintf(stdout, "inter stages : %s\n", stageMeans(m.InterStages[:],
		"source wait", "ECN1 ascent", "concentrator wait", "ICN2", "dispatcher wait", "ECN1 descent"))
	fmt.Fprintf(stdout, "generated    : %d messages, sim time %.1f units\n", m.Generated, m.SimTime)
	fmt.Fprintf(stdout, "bottlenecks  : gateway util %.3f, max channel util %.3f\n",
		m.MaxGatewayUtil, m.MaxChannelUtil)
	fmt.Fprintf(stdout, "cost         : %d events in %v (%.2fM events/s)\n",
		m.Events, elapsed.Round(time.Millisecond), float64(m.Events)/1e6/elapsed.Seconds())

	if *topN > 0 {
		type kv struct {
			name string
			u    float64
		}
		var all []kv
		for n, u := range m.ChannelUtil {
			all = append(all, kv{n, u})
		}
		// Equal utilizations keep name order, so the listing does not
		// depend on map iteration.
		slices.SortFunc(all, func(a, b kv) int {
			if c := cmp.Compare(b.u, a.u); c != 0 {
				return c
			}
			return strings.Compare(a.name, b.name)
		})
		fmt.Fprintf(stdout, "\ntop %d channels by utilization:\n", *topN)
		for i := 0; i < *topN && i < len(all); i++ {
			fmt.Fprintf(stdout, "  %6.3f  %s\n", all[i].u, all[i].name)
		}
	}
	return 0
}

// stageMeans renders each stage's mean latency after its name.
func stageMeans(stages []stats.Accumulator, names ...string) string {
	parts := make([]string, len(stages))
	for i := range stages {
		parts[i] = fmt.Sprintf("%s %.3f", names[i], stages[i].Mean())
	}
	return strings.Join(parts, ", ")
}

func systemByName(name string) (*cluster.System, error) {
	switch name {
	case "1120":
		return cluster.System1120(), nil
	case "544":
		return cluster.System544(), nil
	case "small":
		return cluster.SmallTestSystem(), nil
	}
	return nil, fmt.Errorf("unknown system %q (want 1120, 544 or small)", name)
}
