package sim

import (
	"crypto/sha256"
	"fmt"
	"math"
	"sort"
	"testing"

	"github.com/ccnet/ccnet/internal/cluster"
	"github.com/ccnet/ccnet/internal/netchar"
	"github.com/ccnet/ccnet/internal/stats"
	"github.com/ccnet/ccnet/internal/traffic"
	"github.com/ccnet/ccnet/internal/wormhole"
)

// tinySystem has four n_i=1 clusters (m=4): every intra journey crosses
// exactly 2 links and every inter journey has deterministic segment
// shapes, so end-to-end latencies are computable by hand.
func tinySystem() *cluster.System {
	s := cluster.SmallTestSystem()
	for i := range s.Clusters {
		s.Clusters[i].TreeLevels = 1
	}
	s.Name = "N=16 (tiny)"
	return s
}

func fastCfg(sys *cluster.System, lambda float64) Config {
	return Config{
		Sys:          sys,
		Msg:          netchar.MessageSpec{Flits: 8, FlitBytes: 64},
		Lambda:       lambda,
		Seed:         7,
		WarmupCount:  200,
		MeasureCount: 2000,
	}
}

func TestZeroLoadLatenciesExact(t *testing.T) {
	// At negligible load there is no contention, so latency equals the
	// exact pipeline time of each journey.
	sys := tinySystem()
	msg := netchar.MessageSpec{Flits: 32, FlitBytes: 256}
	m, err := Run(Config{Sys: sys, Msg: msg, Lambda: 1e-7, Seed: 3,
		WarmupCount: 50, MeasureCount: 500})
	if err != nil {
		t.Fatal(err)
	}
	if m.Saturated {
		t.Fatal("saturated at negligible load")
	}

	M := float64(msg.Flits)
	tcnI1 := netchar.Net1.NodeChannelTime(256)   // intra node links
	tcnE1 := netchar.Net2.NodeChannelTime(256)   // ECN1 node links
	tcsI2 := netchar.Net1.SwitchChannelTime(256) // gateway ports
	tcnI2 := netchar.Net1.NodeChannelTime(256)   // ICN2 node links

	// Intra (n=1, h=1): inject+eject at t_cn each → (M+1)·t_cn.
	wantIntra := (M + 1) * tcnI1
	if math.Abs(m.Intra.Mean()-wantIntra) > 1e-6 {
		t.Errorf("intra mean = %v, want exactly %v", m.Intra.Mean(), wantIntra)
	}
	if m.Intra.StdDev() > 1e-5 { // float accumulation noise only
		t.Errorf("intra latencies should be identical, sd = %v", m.Intra.StdDev())
	}

	// Inter: three store-and-forward segments.
	seg1 := tcnE1 + tcsI2 + (M-1)*math.Max(tcnE1, tcsI2) // inject → gateway port
	seg2 := 2*tcnI2 + (M-1)*math.Max(tcnI2, tcnI2)       // ICN2: n_c=1 → 2 node links
	seg3 := tcsI2 + tcnE1 + (M-1)*math.Max(tcsI2, tcnE1) // gateway → eject
	wantInter := seg1 + seg2 + seg3
	if math.Abs(m.Inter.Mean()-wantInter) > 1e-6 {
		t.Errorf("inter mean = %v, want exactly %v", m.Inter.Mean(), wantInter)
	}
	if m.Inter.StdDev() > 1e-5 { // float accumulation noise only
		t.Errorf("inter latencies should be identical, sd = %v", m.Inter.StdDev())
	}

	// Without contention no segment waits, and each transfer is its
	// segment's pipeline time.
	for k, want := range []float64{0, wantIntra} {
		if got := m.IntraStages[k].Mean(); math.Abs(got-want) > 1e-6 {
			t.Errorf("intra stage %d mean = %v, want %v", k, got, want)
		}
	}
	for k, want := range []float64{0, seg1, 0, seg2, 0, seg3} {
		if got := m.InterStages[k].Mean(); math.Abs(got-want) > 1e-6 {
			t.Errorf("inter stage %d mean = %v, want %v", k, got, want)
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	cfg := fastCfg(cluster.SmallTestSystem(), 5e-4)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Latency.Mean() != b.Latency.Mean() || a.Events != b.Events || a.SimTime != b.SimTime {
		t.Fatalf("same seed diverged: mean %v vs %v, events %d vs %d",
			a.Latency.Mean(), b.Latency.Mean(), a.Events, b.Events)
	}
	cfg.Seed = 8
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Latency.Mean() == a.Latency.Mean() {
		t.Fatal("different seeds produced identical means (suspicious)")
	}
}

func TestConservationAndCounts(t *testing.T) {
	cfg := fastCfg(cluster.SmallTestSystem(), 5e-4)
	var measured uint64
	cfg.onDeliver = func(msg *message, deliveredAt float64) {
		if msg.phase != stats.Measure {
			return
		}
		measured++
		if lat := deliveredAt - msg.start[0]; !(lat > 0) {
			t.Fatalf("message %d: non-positive latency %v", msg.id, lat)
		}
	}
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Saturated {
		t.Fatal("unexpected saturation")
	}
	if m.Latency.Count() != cfg.MeasureCount {
		t.Fatalf("measured %d messages, want %d", m.Latency.Count(), cfg.MeasureCount)
	}
	if m.Intra.Count()+m.Inter.Count() != m.Latency.Count() {
		t.Fatalf("intra %d + inter %d != total %d", m.Intra.Count(), m.Inter.Count(), m.Latency.Count())
	}
	if m.Generated < cfg.WarmupCount+cfg.MeasureCount {
		t.Fatalf("generated only %d messages", m.Generated)
	}
	if measured != m.Latency.Count() {
		t.Fatalf("hook saw %d measured deliveries, metrics count %d", measured, m.Latency.Count())
	}
}

func TestInterShareMatchesUniformTraffic(t *testing.T) {
	// Under uniform destinations, the expected inter fraction is the
	// node-weighted mean of U^(i).
	sys := cluster.SmallTestSystem()
	cfg := fastCfg(sys, 2e-4)
	cfg.MeasureCount = 8000
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	n := float64(sys.TotalNodes())
	for i := range sys.Clusters {
		want += float64(sys.ClusterNodes(i)) / n * sys.OutProbability(i)
	}
	got := float64(m.Inter.Count()) / float64(m.Latency.Count())
	if math.Abs(got-want) > 0.03 {
		t.Fatalf("inter share = %v, want ~%v", got, want)
	}
}

func TestLatencyIncreasesWithLoad(t *testing.T) {
	sys := cluster.SmallTestSystem()
	var prev float64
	for _, l := range []float64{1e-4, 1e-3, 2e-3} {
		m, err := Run(fastCfg(sys, l))
		if err != nil {
			t.Fatal(err)
		}
		if m.Saturated {
			t.Fatalf("saturated at λ=%v", l)
		}
		if m.Latency.Mean() <= prev {
			t.Fatalf("latency did not increase with load at λ=%v (%v after %v)",
				l, m.Latency.Mean(), prev)
		}
		prev = m.Latency.Mean()
	}
}

func TestGatewayUtilizationGrowsWithLoad(t *testing.T) {
	sys := cluster.SmallTestSystem()
	low, err := Run(fastCfg(sys, 1e-4))
	if err != nil {
		t.Fatal(err)
	}
	high, err := Run(fastCfg(sys, 2e-3))
	if err != nil {
		t.Fatal(err)
	}
	if !(low.MaxGatewayUtil < high.MaxGatewayUtil) {
		t.Fatalf("gateway utilization did not grow: %v -> %v", low.MaxGatewayUtil, high.MaxGatewayUtil)
	}
	if high.MaxGatewayUtil <= 0 || high.MaxGatewayUtil > 1.0000001 {
		t.Fatalf("gateway utilization out of bounds: %v", high.MaxGatewayUtil)
	}
}

func TestSaturationDetection(t *testing.T) {
	cfg := fastCfg(cluster.SmallTestSystem(), 0.5) // far beyond capacity
	cfg.MaxBacklog = 2000
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Saturated {
		t.Fatal("overloaded system not reported as saturated")
	}
	if m.PeakBacklog < cfg.MaxBacklog {
		t.Fatalf("peak backlog %d below abort threshold %d", m.PeakBacklog, cfg.MaxBacklog)
	}
}

func TestLocalPatternEliminatesInterTraffic(t *testing.T) {
	sys := cluster.SmallTestSystem()
	sizes := make([]int, sys.NumClusters())
	for i := range sizes {
		sizes[i] = sys.ClusterNodes(i)
	}
	cfg := fastCfg(sys, 5e-4)
	cfg.Pattern = traffic.ClusterLocal{Part: traffic.NewPartition(sizes), PLocal: 1}
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Inter.Count() != 0 {
		t.Fatalf("fully local pattern produced %d inter messages", m.Inter.Count())
	}
	if m.MaxGatewayUtil != 0 {
		t.Fatalf("gateways used by local traffic: util %v", m.MaxGatewayUtil)
	}
}

func TestHotspotSkewsLoad(t *testing.T) {
	// At a rate where uniform traffic is comfortably stable, concentrating
	// half the destinations on one node must both raise the peak channel
	// utilization (the hot ejection path) and increase mean latency.
	sys := cluster.SmallTestSystem()
	cfg := fastCfg(sys, 0.04)
	cfg.CollectChannelUtil = true
	uni, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if uni.Saturated {
		t.Fatal("uniform baseline saturated; lower the test rate")
	}
	cfg.Pattern = traffic.Hotspot{N: sys.TotalNodes(), Hot: 0, P: 0.5}
	hot, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hot.MaxChannelUtil <= uni.MaxChannelUtil {
		t.Fatalf("hotspot did not raise peak utilization: %v vs %v",
			hot.MaxChannelUtil, uni.MaxChannelUtil)
	}
	if hot.Latency.Mean() <= uni.Latency.Mean() {
		t.Fatalf("hotspot traffic not slower than uniform: %v vs %v",
			hot.Latency.Mean(), uni.Latency.Mean())
	}
}

func TestChannelUtilCollection(t *testing.T) {
	cfg := fastCfg(cluster.SmallTestSystem(), 5e-4)
	cfg.CollectChannelUtil = true
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.ChannelUtil) == 0 {
		t.Fatal("channel utilization map empty")
	}
	var maxU float64
	for name, u := range m.ChannelUtil {
		if u < 0 || u > 1.0000001 {
			t.Fatalf("channel %s has utilization %v", name, u)
		}
		maxU = math.Max(maxU, u)
	}
	if math.Abs(maxU-m.MaxChannelUtil) > 1e-12 {
		t.Fatalf("map max %v != MaxChannelUtil %v", maxU, m.MaxChannelUtil)
	}
	// Every key and value is pinned: the SHA-256 of the sorted
	// "name bits" lines, recorded when each channel still carried its
	// full name.
	names := make([]string, 0, len(m.ChannelUtil))
	for name := range m.ChannelUtil {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		fmt.Fprintf(h, "%s %016x\n", name, math.Float64bits(m.ChannelUtil[name]))
	}
	const want = "9b9b88841f22c22bb0df15f764c518f1c1b7f3ba591d2b2b032ad5f7c7f71de3"
	if got := fmt.Sprintf("%x", h.Sum(nil)); len(names) != 180 || got != want ||
		names[0] != "CD(0)/conc-root0" || names[len(names)-1] != "ICN2/inject:3->0" {
		t.Fatalf("%d channels %q … %q, digest %s; want 180, CD(0)/conc-root0 … ICN2/inject:3->0, %s",
			len(names), names[0], names[len(names)-1], got, want)
	}
}

func TestConfigValidation(t *testing.T) {
	good := fastCfg(cluster.SmallTestSystem(), 1e-4)

	bad := good
	bad.Sys = nil
	if _, err := Run(bad); err == nil {
		t.Error("accepted nil system")
	}

	bad = good
	bad.Lambda = 0
	if _, err := Run(bad); err == nil {
		t.Error("accepted zero rate")
	}

	bad = good
	bad.Lambda = math.NaN()
	if _, err := Run(bad); err == nil {
		t.Error("accepted NaN rate")
	}

	bad = good
	bad.Msg = netchar.MessageSpec{Flits: 0, FlitBytes: 64}
	if _, err := Run(bad); err == nil {
		t.Error("accepted zero-flit message")
	}

	bad = good
	bad.Pattern = traffic.Uniform{N: 3} // wrong node count
	if _, err := Run(bad); err == nil {
		t.Error("accepted mismatched pattern")
	}

	badSys := cluster.SmallTestSystem()
	badSys.Clusters = badSys.Clusters[:3] // C=3 incompatible with ICN2
	bad = good
	bad.Sys = badSys
	if _, err := Run(bad); err == nil {
		t.Error("accepted system with invalid cluster count")
	}
}

// TestFabricStructure counts, through visit, the channels buildFabric
// makes for Table 1's systems. An m-port n-tree over N_i nodes has
// 2·n·N_i channels (an injection and an ejection channel per node, and
// two per switch link on each of the n−1 switch levels), and a cluster's
// gateway has a concentrator and a dispatcher port per ECN1 root, of
// which there are (m/2)^(n−1).
func TestFabricStructure(t *testing.T) {
	for _, c := range []struct {
		sys      *cluster.System
		clusters int
		icn2     int
		total    int
		// tree and ports pin each tree network's channels and each
		// gateway's ports by n_i.
		tree, ports map[int]int
	}{
		{cluster.System1120(), 32, 128, 11032, map[int]int{1: 16, 2: 128, 3: 768}, map[int]int{1: 2, 2: 8, 3: 32}},
		{cluster.System544(), 16, 96, 9840, map[int]int{3: 96, 4: 256, 5: 640}, map[int]int{3: 8, 4: 16, 5: 32}},
	} {
		sys := c.sys
		f := buildTestFabric(t, sys)
		if len(f.clusters) != c.clusters || sys.NumClusters() != c.clusters {
			t.Fatalf("%s: %d clusters built, want %d", sys.Name, len(f.clusters), c.clusters)
		}
		perNet := make(map[string]int)
		seen := make(map[*wormhole.Channel]bool)
		gateways := 0
		f.visit(false, func(ch *wormhole.Channel, _ string, gateway bool) {
			if seen[ch] {
				t.Fatalf("%s: channel of %s visited twice", sys.Name, ch.Name)
			}
			seen[ch] = true
			perNet[ch.Name]++
			if gateway {
				gateways++
			}
		})
		if len(seen) != c.total {
			t.Errorf("%s: %d channels, want %d", sys.Name, len(seen), c.total)
		}
		if perNet["ICN2"] != c.icn2 || gateways != c.clusters {
			t.Errorf("%s: ICN2 has %d channels and %d gateway injection ports, want %d and %d",
				sys.Name, perNet["ICN2"], gateways, c.icn2, c.clusters)
		}
		k := sys.Ports / 2
		for i, cc := range sys.Clusters {
			n := cc.TreeLevels
			tree := 2 * n * sys.ClusterNodes(i)
			ports := 2
			for range n - 1 {
				ports *= k
			}
			if tree != c.tree[n] || ports != c.ports[n] {
				t.Fatalf("%s cluster %d (n=%d): formula gives %d tree channels and %d gateway ports, table %d and %d",
					sys.Name, i, n, tree, ports, c.tree[n], c.ports[n])
			}
			for _, net := range []string{fmt.Sprintf("ICN1(%d)", i), fmt.Sprintf("ECN1(%d)", i)} {
				if perNet[net] != tree {
					t.Errorf("%s: %s has %d channels, want 2·%d·%d = %d", sys.Name, net, perNet[net], n, sys.ClusterNodes(i), tree)
				}
			}
			if got := perNet[fmt.Sprintf("CD(%d)", i)]; got != ports {
				t.Errorf("%s: cluster %d gateway has %d ports, want %d", sys.Name, i, got, ports)
			}
		}
	}
}

func TestClusterOfOffsets(t *testing.T) {
	f := &fabric{offsets: []int{0, 8, 40, 168}}
	f.nodeCluster = nodeClusters(f.offsets)
	cases := map[int]int{0: 0, 7: 0, 8: 1, 39: 1, 40: 2, 167: 2}
	for node, want := range cases {
		if got := f.clusterOf(node); got != want {
			t.Errorf("clusterOf(%d) = %d, want %d", node, got, want)
		}
	}
	if f.totalNodes() != 168 {
		t.Fatalf("totalNodes = %d", f.totalNodes())
	}
}

// TestDeeperBuffersRaiseCapacity pins finding F-A2: on N=544 the
// simulator saturates well before the analytical knee, and the cause is
// head-of-line blocking, not link capacity. With single-flit buffers a
// blocked worm holds every channel behind its head, so the thin ICN2
// tree (m=4, one gateway port per cluster) stalls the gateway channels
// long before any link is busy all the time; buffers deep enough to
// hold a whole message (virtual cut-through) release those channels and
// move the simulated knee toward the model's, whose queues see only
// link service times.
func TestDeeperBuffersRaiseCapacity(t *testing.T) {
	// At a rate past the depth-1 knee of the N=544 system, virtual-cut-
	// through-depth buffers must sharply reduce latency.
	sys := cluster.System544()
	cfg := Config{
		Sys: sys, Msg: netchar.MessageSpec{Flits: 32, FlitBytes: 256},
		Lambda: 6e-4, Seed: 9, WarmupCount: 2000, MeasureCount: 10000,
	}
	shallow, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.BufferDepth = 32
	deep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if deep.Saturated {
		t.Fatal("deep-buffer run saturated where it should be stable")
	}
	if !(deep.Latency.Mean() < shallow.Latency.Mean()/2) {
		t.Fatalf("deep buffers did not relieve blocking: %v vs %v",
			deep.Latency.Mean(), shallow.Latency.Mean())
	}
}

func TestBufferDepthValidation(t *testing.T) {
	cfg := fastCfg(cluster.SmallTestSystem(), 1e-4)
	cfg.BufferDepth = -1
	if _, err := Run(cfg); err == nil {
		t.Fatal("accepted negative buffer depth")
	}
}

// TestDeliveryStages checks every delivered message through the
// delivery hook — all its segments ran, its branch matches its
// endpoints' clusters, and each segment's wait is non-negative and its
// transfer positive — and that the metrics' stage split is the per-message
// one: each stage counts every measured message of its branch, its mean
// is the mean of those messages' values, and a branch's stage means sum
// to the branch mean.
func TestDeliveryStages(t *testing.T) {
	sys := cluster.SmallTestSystem()
	offsets := []int{0}
	for i := range sys.Clusters {
		offsets = append(offsets, offsets[i]+sys.ClusterNodes(i))
	}
	clusterOf := nodeClusters(offsets)

	var sums [2][6]float64 // measured stage sums, intra then inter
	var counts [2]uint64
	var delivered uint64
	cfg := fastCfg(sys, 2e-3) // contended, so segments wait
	cfg.onDeliver = func(msg *message, deliveredAt float64) {
		delivered++
		if msg.intra != (clusterOf[msg.src] == clusterOf[msg.dst]) {
			t.Fatalf("message %d (%d→%d): intra=%v disagrees with its clusters", msg.id, msg.src, msg.dst, msg.intra)
		}
		segs := msg.segments()
		if msg.seg != segs-1 {
			t.Fatalf("message %d (intra=%v) delivered after segment %d of %d", msg.id, msg.intra, msg.seg+1, segs)
		}
		branch := 1
		if msg.intra {
			branch = 0
		}
		for s := range segs {
			end := deliveredAt
			if s+1 < segs {
				end = msg.start[s+1]
			}
			wait, transfer := msg.head[s]-msg.start[s], end-msg.head[s]
			if wait < 0 || transfer <= 0 {
				t.Fatalf("message %d segment %d: wait %v, transfer %v", msg.id, s, wait, transfer)
			}
			if msg.phase == stats.Measure {
				sums[branch][2*s] += wait
				sums[branch][2*s+1] += transfer
			}
		}
		if msg.phase == stats.Measure {
			counts[branch]++
		}
	}
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Saturated || delivered < m.Latency.Count() {
		t.Fatalf("saturated=%v, %d deliveries for %d measured", m.Saturated, delivered, m.Latency.Count())
	}
	for b, branch := range []struct {
		name   string
		acc    *stats.Accumulator
		stages []stats.Accumulator
	}{
		{"intra", &m.Intra, m.IntraStages[:]},
		{"inter", &m.Inter, m.InterStages[:]},
	} {
		if branch.acc.Count() == 0 || branch.acc.Count() != counts[b] {
			t.Fatalf("%s: %d measured, hook saw %d", branch.name, branch.acc.Count(), counts[b])
		}
		var sum float64
		for k := range branch.stages {
			st := &branch.stages[k]
			if st.Count() != counts[b] {
				t.Errorf("%s stage %d counts %d messages, want %d", branch.name, k, st.Count(), counts[b])
			}
			if want := sums[b][k] / float64(counts[b]); math.Abs(st.Mean()-want) > 1e-9*branch.acc.Mean() {
				t.Errorf("%s stage %d mean %v, messages' mean %v", branch.name, k, st.Mean(), want)
			}
			sum += st.Mean()
		}
		if math.Abs(sum-branch.acc.Mean()) > 1e-9*branch.acc.Mean() {
			t.Errorf("%s stage means sum to %v, branch mean %v", branch.name, sum, branch.acc.Mean())
		}
	}
}
