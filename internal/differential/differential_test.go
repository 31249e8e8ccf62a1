// Package differential cross-validates the analytical model against the
// discrete-event simulator on randomly generated heterogeneous systems —
// the same differential-testing discipline internal/wormhole applies to
// the channel engine (engine vs full-matrix reference), lifted to the
// whole pipeline: for every random system the store-and-forward model
// variant must track the simulator's light-load mean latency within the
// repo's established tolerance envelope. Systems are kept small (one to
// two hundred nodes) so each simulation takes milliseconds; `-short`
// skips the package entirely to keep quick iterations fast.
package differential

import (
	"math"
	"math/rand"
	"testing"

	"github.com/ccnet/ccnet/internal/cluster"
	"github.com/ccnet/ccnet/internal/core"
	"github.com/ccnet/ccnet/internal/netchar"
	"github.com/ccnet/ccnet/internal/sim"
)

// envelope is the acceptance band for |model−sim|/sim at light load,
// matching the ~12 % bound internal/scenario's TestFigureLightLoadAgreement
// holds the paper-scale reproductions to, with margin for the smaller
// random systems here (observed: 1–12 % across seeds). A broken model
// term shifts latency by integer factors, far outside this band.
const envelope = 15.0 // percent

// miniatureEnvelope is the band for the 24-node test miniature, whose
// size sits outside the model's large-system approximations (Eq 6 reuse
// for gateway crossings, per-pair rate averaging — see
// cluster.SmallTestSystem's doc): the inter-cluster term runs ~30–40 %
// pessimistic there, so only factor-level breaks are caught.
const miniatureEnvelope = 50.0 // percent

// lightLoadFraction positions the comparison rate well inside the
// stable region, where the light-load convention of
// scenario.LightLoadError applies.
const lightLoadFraction = 0.3

// randomSystem draws an 8-cluster heterogeneous system (m=4, n_i ∈
// {2,3,4}, 100–200 nodes) with randomized network classes — large
// enough for the model's approximations, small enough that a simulation
// finishes in milliseconds.
func randomSystem(r *rand.Rand) *cluster.System {
	net := func() netchar.Characteristics {
		switch r.Intn(3) {
		case 0:
			return netchar.Net1
		case 1:
			return netchar.Net2
		default:
			return netchar.Characteristics{
				Bandwidth:      100 + r.Float64()*900,
				NetworkLatency: 0.01 + r.Float64()*0.05,
				SwitchLatency:  0.01 + r.Float64()*0.05,
			}
		}
	}
	sys := &cluster.System{Name: "diff-random", Ports: 4, ICN2: net()}
	for i := 0; i < 8; i++ {
		sys.Clusters = append(sys.Clusters, cluster.Config{
			TreeLevels: 2 + r.Intn(3),
			ICN1:       net(),
			ECN1:       net(),
		})
	}
	return sys
}

// TestModelTracksSimulatorOnRandomSystems builds random heterogeneous
// systems and checks the analytical model against the simulator at a
// light-load rate derived from the analytical saturation point. The
// store-and-forward variant is the physically realizable reading the
// simulator implements, so that is the column held to the envelope.
func TestModelTracksSimulatorOnRandomSystems(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy differential test")
	}
	r := rand.New(rand.NewSource(23))
	const trials = 6
	for trial := 0; trial < trials; trial++ {
		sys := randomSystem(r)
		if err := sys.Validate(); err != nil {
			t.Fatalf("trial %d: random system invalid: %v", trial, err)
		}
		msg := netchar.MessageSpec{Flits: 16, FlitBytes: 128}

		model, err := core.New(sys, msg, core.Options{GatewayStoreAndForward: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sat := model.SaturationPoint(1.0, 1e-4)
		if sat <= 0 {
			t.Fatalf("trial %d: no stable rate", trial)
		}
		lambda := lightLoadFraction * sat

		res := model.Evaluate(lambda)
		if res.Saturated {
			t.Fatalf("trial %d: model saturated at light load λ=%g", trial, lambda)
		}

		m, err := sim.Run(sim.Config{
			Sys: sys, Msg: msg, Lambda: lambda,
			Seed:        uint64(1000 + trial),
			WarmupCount: 2000, MeasureCount: 20000,
		})
		if err != nil {
			t.Fatalf("trial %d: sim: %v", trial, err)
		}
		if m.Saturated {
			t.Fatalf("trial %d: simulator saturated at light load λ=%g (model stable)", trial, lambda)
		}

		simMean := m.MeanLatency()
		relPct := math.Abs(res.MeanLatency-simMean) / simMean * 100
		t.Logf("trial %d: N=%d λ=%.3g model=%.4g sim=%.4g err=%.1f%%",
			trial, sys.TotalNodes(), lambda, res.MeanLatency, simMean, relPct)
		if relPct > envelope {
			t.Errorf("trial %d: model %.4g vs sim %.4g: %.1f%% outside the %.0f%% envelope",
				trial, res.MeanLatency, simMean, relPct, envelope)
		}
	}
}

// TestModelTracksSimulatorOnMiniature anchors the same comparison on
// the deterministic 24-node preset with the branch decomposition
// checked too: the intra term must agree tightly (it has no small-system
// approximations), the inter term and mean within the miniature band.
func TestModelTracksSimulatorOnMiniature(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy differential test")
	}
	sys := cluster.SmallTestSystem()
	msg := netchar.MessageSpec{Flits: 16, FlitBytes: 128}
	model, err := core.New(sys, msg, core.Options{GatewayStoreAndForward: true})
	if err != nil {
		t.Fatal(err)
	}
	lambda := lightLoadFraction * model.SaturationPoint(1.0, 1e-4)
	res := model.Evaluate(lambda)

	m, err := sim.Run(sim.Config{
		Sys: sys, Msg: msg, Lambda: lambda, Seed: 42,
		WarmupCount: 2000, MeasureCount: 30000,
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, model, sim, band float64) {
		t.Helper()
		relPct := math.Abs(model-sim) / sim * 100
		t.Logf("%s: model=%.4g sim=%.4g err=%.1f%%", name, model, sim, relPct)
		if relPct > band {
			t.Errorf("%s: model %.4g vs sim %.4g: %.1f%% outside the %.0f%% envelope",
				name, model, sim, relPct, band)
		}
	}
	check("mean", res.MeanLatency, m.MeanLatency(), miniatureEnvelope)
	check("intra", res.MeanIntra, m.Intra.Mean(), envelope)
	check("inter", res.MeanInter, m.Inter.Mean(), miniatureEnvelope)
}
