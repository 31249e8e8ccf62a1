package differential

import (
	"testing"

	"github.com/ccnet/ccnet/internal/cluster"
	"github.com/ccnet/ccnet/internal/core"
	"github.com/ccnet/ccnet/internal/netchar"
	"github.com/ccnet/ccnet/internal/sim"
)

// stableRun is the simulated bisection's verdict on one run: it neither
// aborted on its backlog nor drifted, its second measured half staying
// under 1.4× the first. An overdriven system's latency grows throughout
// the window, so a short run of a mildly unstable one would otherwise
// complete and look healthy.
func stableRun(m *sim.Metrics) bool {
	return !m.Saturated && m.SecondHalf.Mean() < 1.4*m.FirstHalf.Mean()
}

// concentratorWait indexes sim.Metrics.InterStages: the wait of a
// message at its source gateway for the gateway's ICN2 port.
const concentratorWait = 2

// TestSimulatedKneeRatios finds each configuration's saturation point
// two ways, by bisection on the store-and-forward model and by
// bisection on the simulator, and pins their ratio. The model is
// optimistic because it treats channels as independent, while a blocked
// wormhole head holds every channel behind it: by about 23 % on N=1120,
// whose ICN2 tree is fat and short (m=8, two levels), and by about 2×
// on N=544, whose thin ICN2 tree (m=4, three levels) compounds blocking
// over six-hop paths. Within one system the ratio holds across message
// and flit sizes.
//
// At each configuration's last stable probe the test also names the
// simulator's binding queue from the stage split: the concentrator's
// wait for the gateway's ICN2 port is the largest inter stage, the C/D
// bottleneck the paper models with Eqs 36–38.
func TestSimulatedKneeRatios(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated bisection: 35 runs of up to 20,000 messages")
	}
	// band is the accepted relative distance from each pinned ratio.
	// Six probes leave a bracket of 1.875/64 of the model knee, ±3.2 %
	// of the N=544 midpoint; the band is wider than that, and a broken
	// model or simulator term moves the ratio by far more.
	const band = 0.08
	for _, c := range []struct {
		sys              func() *cluster.System
		flits, flitBytes int
		ratio            float64 // model/sim knee
	}{
		{cluster.System1120, 32, 256, 1.229},
		{cluster.System1120, 64, 256, 1.229},
		{cluster.System544, 32, 256, 2.165},
		{cluster.System544, 64, 256, 2.165},
		{cluster.System544, 32, 512, 2.165},
	} {
		sys := c.sys()
		msg := netchar.MessageSpec{Flits: c.flits, FlitBytes: c.flitBytes}
		model, err := core.New(sys, msg, core.Options{GatewayStoreAndForward: true})
		if err != nil {
			t.Fatal(err)
		}
		modelSat := model.SaturationPoint(0.01, 1e-4)

		probe := func(lambda float64) *sim.Metrics {
			m, err := sim.Run(sim.Config{
				Sys: sys, Msg: msg, Lambda: lambda, Seed: 3,
				WarmupCount: 4000, MeasureCount: 16000, MaxBacklog: 8000,
			})
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		lo, hi := modelSat/8, modelSat*2
		lastStable := probe(lo)
		if !stableRun(lastStable) {
			t.Fatalf("%s M=%d d_m=%d: lower bracket %.3g already unstable", sys.Name, c.flits, c.flitBytes, lo)
		}
		for range 6 {
			mid := (lo + hi) / 2
			if m := probe(mid); stableRun(m) {
				lo, lastStable = mid, m
			} else {
				hi = mid
			}
		}
		ratio := modelSat / ((lo + hi) / 2)
		st := &lastStable.InterStages
		t.Logf("%s M=%d d_m=%d: model λ* %.4g, simulated λ* in [%.3g, %.3g], model/sim %.3f; at %.3g inter stages %.3f %.3f %.3f %.3f %.3f %.3f",
			sys.Name, c.flits, c.flitBytes, modelSat, lo, hi, ratio, lo,
			st[0].Mean(), st[1].Mean(), st[2].Mean(), st[3].Mean(), st[4].Mean(), st[5].Mean())
		if ratio < c.ratio*(1-band) || ratio > c.ratio*(1+band) {
			t.Errorf("%s M=%d d_m=%d: model/sim knee %.3f, want %.3f ± %g %%", sys.Name, c.flits, c.flitBytes, ratio, c.ratio, 100*band)
		}
		for k := range st {
			if k != concentratorWait && st[k].Mean() >= st[concentratorWait].Mean() {
				t.Errorf("%s M=%d d_m=%d at λ=%.3g: inter stage %d (mean %.3f) is not below the concentrator wait (%.3f)",
					sys.Name, c.flits, c.flitBytes, lo, k, st[k].Mean(), st[concentratorWait].Mean())
			}
		}
	}
}
