package fleetsim

import (
	"context"
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"testing"

	"github.com/ccnet/ccnet/internal/cluster"
	"github.com/ccnet/ccnet/internal/netchar"
	"github.com/ccnet/ccnet/internal/perfab"
)

// study builds a fleet study over the 4-cluster miniature (groups: two
// n=1 clusters with 4 nodes each, two n=2 clusters with 8 each).
func study(block *perfab.Block, fs *Block) *Study {
	return &Study{
		Perf: &perfab.Study{
			Name:    "fleet-test",
			Sys:     cluster.SmallTestSystem(),
			GroupOf: []int{0, 0, 1, 1},
			Msg:     netchar.MessageSpec{Flits: 16, FlitBytes: 128},
			Block:   block,
			Seed:    1,
		},
		Block: fs,
	}
}

// nodeBlock is a single node failure class over group 1 (16 nodes): a
// 17-state exact space perfab enumerates exhaustively.
func nodeBlock() *perfab.Block {
	return &perfab.Block{
		Nodes: []perfab.NodeFailureSpec{
			{Group: 1, RateSpec: perfab.RateSpec{MTTF: 1500, MTTR: 50, Repairers: 2}},
		},
	}
}

func boolPtr(b bool) *bool { return &b }

// TestLongRunConvergesToSteadyState: the trajectory's time averages are
// ergodic averages of the same birth–death chains perfab solves
// exactly, so a long horizon must land within 2% of the steady-state
// report (the ISSUE's acceptance bar).
func TestLongRunConvergesToSteadyState(t *testing.T) {
	st := study(nodeBlock(), &Block{Horizon: 4e6, Epoch: 200})
	steady, err := (&perfab.Engine{}).Run(context.Background(), st.Perf)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := (&Engine{}).Run(context.Background(), st)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Transitions < 10000 {
		t.Fatalf("only %d transitions; horizon too short for an ergodic average", rep.Transitions)
	}
	within := func(name string, got, want float64) {
		t.Helper()
		if want == 0 {
			if got != 0 {
				t.Errorf("%s: got %v, steady state 0", name, got)
			}
			return
		}
		if rel := math.Abs(got-want) / want; rel > 0.02 {
			t.Errorf("%s: trajectory %v vs steady state %v (%.2f%% off)", name, got, want, 100*rel)
		}
	}
	within("availability", rep.LongRun.Availability, steady.Availability)
	within("expectedLatency", rep.LongRun.ExpectedLatency, steady.ExpectedLatency)
	within("latencyFiniteProbability", rep.LongRun.LatencyFiniteProbability, steady.LatencyFiniteProbability)
	within("expectedServedFraction", rep.LongRun.ExpectedServedFraction, steady.ExpectedServedFraction)
	within("expectedSaturation", rep.LongRun.ExpectedSaturation, steady.ExpectedSaturation)
	within("expectedCapacity", rep.LongRun.ExpectedCapacity, steady.ExpectedCapacity)
}

// TestReportWorkerInvariant: identical spec+seed must marshal to
// byte-identical reports at any GOMAXPROCS, and the EpochReady stream
// must deliver every epoch in ascending order with the same content.
func TestReportWorkerInvariant(t *testing.T) {
	mk := func() *Study {
		return study(nodeBlock(), &Block{
			Horizon: 20000,
			Epoch:   500,
			Timeline: []EventSpec{
				{At: 1000, Action: ActInjectFailure, Class: "nodes[g1]", Count: 6},
				{At: 3000, Action: ActRepair, Class: "nodes[g1]", Count: 6},
				{At: 5000, Action: ActSetLambda, Lambda: 0.002},
			},
		})
	}
	run := func(procs int) (*Report, []byte, []EpochMetrics) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var stream []EpochMetrics
		eng := &Engine{EpochReady: func(e EpochMetrics) { stream = append(stream, e) }}
		rep, err := eng.Run(context.Background(), mk())
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return rep, b, stream
	}
	rep, base, stream := run(1)
	if len(stream) != len(rep.Epochs) {
		t.Fatalf("EpochReady delivered %d epochs, report has %d", len(stream), len(rep.Epochs))
	}
	for i := range stream {
		if stream[i].Index != i {
			t.Fatalf("EpochReady out of order: got index %d at position %d", stream[i].Index, i)
		}
	}
	if _, got, _ := run(8); string(got) != string(base) {
		t.Fatal("report differs between GOMAXPROCS=1 and GOMAXPROCS=8")
	}
}

// TestScriptedTimelineSemantics: with stochastic arrivals off the
// trajectory is exactly the scripted script — inject degrades the
// epoch, repair restores it, clamping is visible in the applied events.
func TestScriptedTimelineSemantics(t *testing.T) {
	st := study(nodeBlock(), &Block{
		Horizon:    30,
		Epoch:      10,
		Stochastic: boolPtr(false),
		Timeline: []EventSpec{
			{At: 10, Action: ActInjectFailure, Class: "nodes[g1]", Count: 100},
			{At: 20, Action: ActRepair, Class: "nodes[g1]", Count: 100},
		},
		Assertions: []AssertionSpec{
			{Check: CheckRecoversWithin, Value: 20},
			{Check: CheckMinAvailability, Value: 0.5},
		},
	})
	rep, err := (&Engine{}).Run(context.Background(), st)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Transitions != 0 {
		t.Errorf("scripted-only run reports %d stochastic transitions", rep.Transitions)
	}
	if len(rep.Timeline) != 2 {
		t.Fatalf("applied %d events, want 2", len(rep.Timeline))
	}
	if rep.Timeline[0].Requested != 100 || rep.Timeline[0].Applied != 16 {
		t.Errorf("inject clamp: %+v (want requested 100, applied 16)", rep.Timeline[0])
	}
	if rep.Timeline[1].Applied != 16 {
		t.Errorf("repair clamp: %+v (want applied 16)", rep.Timeline[1])
	}
	if len(rep.Epochs) != 3 {
		t.Fatalf("%d epochs, want 3", len(rep.Epochs))
	}
	if e := rep.Epochs[0]; e.ServedFraction != 1 || e.UpFraction != 1 {
		t.Errorf("epoch 0 not intact: %+v", e)
	}
	// All 16 of group 1's nodes down: 8 of 24 nodes survive.
	if e := rep.Epochs[1]; math.Abs(e.ServedFraction-8.0/24) > 1e-9 || e.Failed[0] != 16 {
		t.Errorf("epoch 1 degraded state wrong: %+v", e)
	}
	if e := rep.Epochs[2]; e.ServedFraction != 1 || e.Failed[0] != 0 {
		t.Errorf("epoch 2 not recovered: %+v", e)
	}
	if rep.FailedAssertions != 0 {
		t.Errorf("assertions failed: %+v", rep.Assertions)
	}
	// The same scenario with a deadline before the repair must fail.
	st.Block.Assertions = []AssertionSpec{{Check: CheckRecoversWithin, Value: 15}}
	rep, err = (&Engine{}).Run(context.Background(), st)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FailedAssertions != 1 || rep.Assertions[0].Observed != 20 {
		t.Errorf("deadline assertion: %+v", rep.Assertions)
	}
}

// TestAssertionChecks covers the window logic directly.
func TestAssertionChecks(t *testing.T) {
	lat := func(v float64) *float64 { return &v }
	epochs := []EpochMetrics{
		{Index: 0, T0: 0, T1: 10, UpFraction: 1, ServedFraction: 1, Latency: lat(100)},
		{Index: 1, T0: 10, T1: 20, UpFraction: 0.5, ServedFraction: 0.5, Latency: lat(500)},
		{Index: 2, T0: 20, T1: 30, UpFraction: 1, ServedFraction: 1, Latency: lat(120)},
	}
	b := &Block{Horizon: 30, Epoch: 10, Assertions: []AssertionSpec{
		{Check: CheckP99LatencyBelow, Value: 1000},
		{Check: CheckP99LatencyBelow, Value: 200},
		{Check: CheckP99LatencyBelow, Value: 200, From: 20},
		{Check: CheckMinAvailability, Value: 0.8},
		{Check: CheckMinAvailability, Value: 0.6, From: 10, To: 20},
		{Check: CheckRecoversWithin, Value: 25},
	}}
	res, failed := checkAssertions(b, epochs)
	want := []bool{true, false, true, true, false, true}
	if failed != 2 {
		t.Errorf("%d failed, want 2", failed)
	}
	for i, r := range res {
		if r.Passed != want[i] {
			t.Errorf("assertion %d (%s value %v): passed=%v, want %v (observed %v)",
				i, r.Check, r.Value, r.Passed, want[i], r.Observed)
		}
	}
	// A down epoch in the window drags p99 to the bound with passed=false.
	epochs[1].Latency = nil
	res, _ = checkAssertions(b, epochs[:2])
	if res[0].Passed || res[0].Observed != 1000 {
		t.Errorf("unservable epoch p99: %+v", res[0])
	}
}

// TestValidateDiagnostics: every bad field is reported with its path.
func TestValidateDiagnostics(t *testing.T) {
	labels := []string{"nodes[g1]", "icn2Switches[L0]"}
	cases := []struct {
		name string
		blk  Block
		want string
	}{
		{"bad horizon", Block{Horizon: -1, Epoch: 1}, "fleetsim.horizon"},
		{"bad epoch", Block{Horizon: 10, Epoch: 0}, "fleetsim.epoch"},
		{"epoch cap", Block{Horizon: 1e9, Epoch: 1}, "exceeds the 20000-epoch cap"},
		{"unknown action", Block{Horizon: 10, Epoch: 1, Timeline: []EventSpec{
			{At: 1, Action: "explode"}}}, `unknown action "explode" (valid: inject_failure, repair, set_lambda)`},
		{"unknown class", Block{Horizon: 10, Epoch: 1, Timeline: []EventSpec{
			{At: 1, Action: ActInjectFailure, Class: "nodes[g9]"}}},
			`fleetsim.timeline[0].class: unknown class "nodes[g9]" (valid: nodes[g1], icn2Switches[L0])`},
		{"event after horizon", Block{Horizon: 10, Epoch: 1, Timeline: []EventSpec{
			{At: 11, Action: ActRepair, Class: "nodes[g1]"}}}, "fleetsim.timeline[0].at"},
		{"bad lambda", Block{Horizon: 10, Epoch: 1, Timeline: []EventSpec{
			{At: 1, Action: ActSetLambda, Lambda: -2}}}, "fleetsim.timeline[0].lambda"},
		{"unknown check", Block{Horizon: 10, Epoch: 1, Assertions: []AssertionSpec{
			{Check: "latency_is_nice", Value: 1}}}, `unknown check "latency_is_nice"`},
		{"bad window", Block{Horizon: 10, Epoch: 1, Assertions: []AssertionSpec{
			{Check: CheckMinAvailability, Value: 0.9, From: 5, To: 2}}}, "fleetsim.assertions[0].to"},
		{"bad deadline", Block{Horizon: 10, Epoch: 1, Assertions: []AssertionSpec{
			{Check: CheckRecoversWithin, Value: 99}}}, "fleetsim.assertions[0].value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.blk.Validate("fleetsim", labels)
			if err == nil {
				t.Fatal("validation passed")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	good := Block{Horizon: 10, Epoch: 1, Timeline: []EventSpec{
		{At: 1, Action: ActInjectFailure, Class: "nodes[g1]", Count: 3},
		{At: 2, Action: ActSetLambda, Lambda: 0.01},
	}}
	if err := good.Validate("fleetsim", labels); err != nil {
		t.Errorf("valid block rejected: %v", err)
	}
}

// TestEventBudget: a runaway spec fails with the budget diagnostic
// instead of spinning.
func TestEventBudget(t *testing.T) {
	blk := &perfab.Block{
		Nodes: []perfab.NodeFailureSpec{
			{Group: 1, RateSpec: perfab.RateSpec{MTTF: 0.001, MTTR: 0.001}},
		},
	}
	st := study(blk, &Block{Horizon: 10000, Epoch: 1000})
	_, err := (&Engine{}).Run(context.Background(), st)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("want event-budget error, got %v", err)
	}
}
