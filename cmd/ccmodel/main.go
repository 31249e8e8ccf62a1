// Command ccmodel evaluates the analytical latency model on one of the
// paper's system organizations (or a custom uniform one) across a traffic
// sweep, printing latency, per-branch decomposition, and the saturation
// point.
//
// Examples:
//
//	ccmodel -system 1120 -flits 32 -flitbytes 256 -from 2.5e-5 -to 4.75e-4 -points 10
//	ccmodel -system 544 -flits 128 -variant paper-literal -decompose
//	ccmodel -system 1120 -icn2-scale 1.2 -flits 128
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/ccnet/ccnet/internal/cluster"
	"github.com/ccnet/ccnet/internal/core"
	"github.com/ccnet/ccnet/internal/netchar"
	"github.com/ccnet/ccnet/internal/version"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses flags and evaluates; split from main so the table-driven
// CLI tests can exercise exit codes and usage output without exec'ing.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccmodel", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		system      = fs.String("system", "1120", "system organization: 1120, 544 or small")
		flits       = fs.Int("flits", 32, "message length M in flits")
		flitBytes   = fs.Int("flitbytes", 256, "flit size d_m in bytes")
		from        = fs.Float64("from", 2.5e-5, "sweep start λ_g")
		to          = fs.Float64("to", 4.75e-4, "sweep end λ_g")
		points      = fs.Int("points", 10, "sweep points")
		variant     = fs.String("variant", "reconstructed", "rate variant: reconstructed or paper-literal")
		sandf       = fs.Bool("sf-gateways", false, "add the store-and-forward gateway correction")
		icn2Scale   = fs.Float64("icn2-scale", 1, "scale ICN2 bandwidth by this factor (Fig 7 knob)")
		decompose   = fs.Bool("decompose", false, "print per-cluster latency decomposition of the last point")
		locality    = fs.Float64("locality", -1, "cluster-local traffic fraction in [0,1) (default: uniform destinations)")
		showVersion = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *showVersion {
		fmt.Fprintln(stdout, version.String("ccmodel"))
		return 0
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "ccmodel:", err)
		return 1
	}
	// core.LambdaGrid panics on a grid it cannot build, and a NaN bound
	// would reach Model.Evaluate's panic.
	if *points < 2 {
		return fail(fmt.Errorf("-points must be >= 2, got %d", *points))
	}
	if !(*from >= 0) {
		return fail(fmt.Errorf("-from must be >= 0, got %v", *from))
	}
	if !(*to > *from) {
		return fail(fmt.Errorf("-to must be above -from, got -from %v -to %v", *from, *to))
	}

	sys, err := systemByName(*system)
	if err != nil {
		return fail(err)
	}
	if *icn2Scale != 1 {
		sys = sys.ScaleICN2Bandwidth(*icn2Scale)
	}

	opt := core.Options{GatewayStoreAndForward: *sandf}
	if *locality >= 0 {
		opt.UseLocality = true
		opt.LocalityFraction = *locality
	}
	switch *variant {
	case "reconstructed":
	case "paper-literal":
		opt.Variant = core.PaperLiteral
	default:
		return fail(fmt.Errorf("unknown variant %q", *variant))
	}

	model, err := core.New(sys, netchar.MessageSpec{Flits: *flits, FlitBytes: *flitBytes}, opt)
	if err != nil {
		return fail(err)
	}

	fmt.Fprintf(stdout, "system %s: N=%d C=%d m=%d; M=%d flits × %d B; variant=%v sf=%v\n",
		sys.Name, sys.TotalNodes(), sys.NumClusters(), sys.Ports, *flits, *flitBytes, opt.Variant, *sandf)
	fmt.Fprintf(stdout, "saturation point: λ_g ≈ %.4g msg/node/time-unit\n\n", model.SaturationPoint(0.1, 1e-5))

	fmt.Fprintf(stdout, "%-12s %-12s %-12s %-12s %s\n", "lambda", "latency", "intra", "inter", "status")
	var last *core.Result
	for _, r := range model.Sweep(core.LambdaGrid(*from, *to, *points)) {
		status := "ok"
		lat, intra, inter := fmt.Sprintf("%.2f", r.MeanLatency),
			fmt.Sprintf("%.2f", r.MeanIntra), fmt.Sprintf("%.2f", r.MeanInter)
		if r.Saturated {
			status = "saturated"
			lat, intra, inter = "-", "-", "-"
		}
		fmt.Fprintf(stdout, "%-12.4e %-12s %-12s %-12s %s\n", r.Lambda, lat, intra, inter, status)
		last = r
	}

	if *decompose && last != nil && !last.Saturated {
		fmt.Fprintf(stdout, "\nper-cluster decomposition at λ=%.4e:\n", last.Lambda)
		fmt.Fprintf(stdout, "%-4s %-6s %-8s %-8s %-8s %-8s %-8s %-8s\n",
			"i", "U", "W_in", "T_in", "L_in", "T_ex", "W_d", "mean")
		for i, cr := range last.PerCluster {
			fmt.Fprintf(stdout, "%-4d %-6.3f %-8.3f %-8.3f %-8.3f %-8.3f %-8.3f %-8.3f\n",
				i, cr.U, cr.WIn, cr.TIn, cr.LIn, cr.TEx, cr.WD, cr.Mean)
		}
	}
	return 0
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
