// Quickstart: evaluate the analytical model on a small heterogeneous
// cluster-of-clusters system, validate it against the discrete-event
// simulator at one operating point, and print the comparison.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"github.com/ccnet/ccnet/internal/cluster"
	"github.com/ccnet/ccnet/internal/core"
	"github.com/ccnet/ccnet/internal/netchar"
	"github.com/ccnet/ccnet/internal/sim"
)

func main() {
	// Table 1's second organization: 16 heterogeneous clusters (16, 32
	// and 64 nodes), 544 nodes total, m=4-port switches. ICN1/ICN2 use
	// the fast network class, ECN1 the slow one — the assignment the
	// paper validates with.
	sys := cluster.System544()
	msg := netchar.MessageSpec{Flits: 32, FlitBytes: 256}

	fmt.Printf("system: %s — %d clusters, %d nodes, m=%d ports\n",
		sys.Name, sys.NumClusters(), sys.TotalNodes(), sys.Ports)
	for _, i := range []int{0, 8, 11} { // one cluster per size band
		fmt.Printf("  cluster %2d: n_i=%d (%d nodes), U=%.3f of its traffic leaves\n",
			i, sys.Clusters[i].TreeLevels, sys.ClusterNodes(i), sys.OutProbability(i))
	}

	// The analytical model (with the store-and-forward gateway term that
	// matches the concrete simulator; see core.Options).
	model, err := core.New(sys, msg, core.Options{GatewayStoreAndForward: true})
	if err != nil {
		log.Fatal(err)
	}
	sat := model.SaturationPoint(0.1, 1e-5)
	fmt.Printf("\nmodel saturation point: λ_g ≈ %.4g messages/node/time-unit\n", sat)

	// Operate in the light-load region (25 % of saturation), where the
	// paper reports 4–8 % model accuracy, and compare against simulation.
	lambda := 0.25 * sat
	r := model.Evaluate(lambda)
	fmt.Printf("\nat λ_g = %.4g (25%% of saturation):\n", lambda)
	fmt.Printf("  model mean latency      : %.2f time units\n", r.MeanLatency)

	m, err := sim.Run(sim.Config{
		Sys: sys, Msg: msg, Lambda: lambda, Seed: 7,
		WarmupCount: 2000, MeasureCount: 20000,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  simulated mean latency  : %.2f ± %.2f (95%% CI)\n",
		m.MeanLatency(), m.Latency.CI95())
	fmt.Printf("  model error             : %+.1f%%\n",
		100*(r.MeanLatency-m.MeanLatency())/m.MeanLatency())
	fmt.Printf("  intra / inter split     : %d / %d messages\n",
		m.Intra.Count(), m.Inter.Count())
	fmt.Printf("  busiest gateway port    : %.1f%% utilized\n", 100*m.MaxGatewayUtil)
}
