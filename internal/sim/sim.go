// Package sim is the discrete-event cluster-of-clusters simulator the
// analytical model is validated against, mirroring the paper's validation
// setup: Poisson sources, uniform destinations, wormhole flow control on
// every network, deterministic Up*/Down* routing, and the
// warm-up/measure/drain statistics protocol (10,000 / 100,000 / open-ended
// drain by default).
package sim

import (
	"errors"
	"fmt"
	"math"

	"github.com/ccnet/ccnet/internal/cluster"
	"github.com/ccnet/ccnet/internal/des"
	"github.com/ccnet/ccnet/internal/netchar"
	"github.com/ccnet/ccnet/internal/rng"
	"github.com/ccnet/ccnet/internal/stats"
	"github.com/ccnet/ccnet/internal/traffic"
	"github.com/ccnet/ccnet/internal/wormhole"
)

// Config parameterizes one simulation run.
type Config struct {
	Sys    *cluster.System
	Msg    netchar.MessageSpec
	Lambda float64 // λ_g: messages per node per time unit

	// Pattern overrides the destination distribution; nil means the
	// paper's uniform pattern.
	Pattern traffic.Pattern

	// ActiveNodes restricts traffic generation to these node ids (nil =
	// every node generates): each active node is a Poisson source at
	// Lambda, inactive nodes are silent. The performability layer's
	// degraded-mode cross-checks pair it with traffic.Survivors so
	// failed nodes neither send nor receive.
	ActiveNodes []int

	// Seed makes runs reproducible; runs with equal seeds are identical.
	Seed uint64

	// WarmupCount and MeasureCount default to the paper's 10,000 and
	// 100,000 messages.
	WarmupCount, MeasureCount uint64

	// MaxBacklog aborts the run (Saturated result) once this many
	// messages are simultaneously in flight — an unstable system grows
	// its queues without bound. Default 50000; the nonuniform and
	// bufferdepth campaigns under examples/scenarios set 25000
	// (engines.maxBacklog).
	MaxBacklog int

	// CollectChannelUtil fills Metrics.ChannelUtil with the utilization
	// of every channel in the system, keyed by channel name. Costs one
	// map entry per channel; off by default.
	CollectChannelUtil bool

	// BufferDepth is the per-channel input buffer depth in flits. The
	// default 0 means 1, the paper's assumption 6 (pure wormhole);
	// depths of a message length or more behave like virtual cut-through
	// and largely remove head-of-line blocking inflation.
	BufferDepth int

	// onDeliver, when set, sees every delivered message (all phases) and
	// its delivery time, just before the message is recycled: the
	// package's tests read per-message facts through it and must not
	// retain the pointer.
	onDeliver func(msg *message, deliveredAt float64)
}

// maxEvents is a hard safety valve on kernel events.
const maxEvents = 500_000_000

func (c *Config) defaults() {
	if c.WarmupCount == 0 {
		c.WarmupCount = 10000
	}
	if c.MeasureCount == 0 {
		c.MeasureCount = 100000
	}
	if c.MaxBacklog == 0 {
		c.MaxBacklog = 50000
	}
	if c.BufferDepth == 0 {
		c.BufferDepth = 1
	}
}

// Metrics summarizes one run.
type Metrics struct {
	// Latency aggregates measured end-to-end latencies (generation to
	// tail delivery, including source queueing — the paper time-stamps at
	// generation).
	Latency stats.Accumulator
	// Intra and Inter split the measured population by branch.
	Intra, Inter stats.Accumulator
	// IntraStages and InterStages split each branch's measured latency
	// by stage, in a message's order. Every segment contributes its
	// wait (from when it may start to its head's grant of its first
	// channel) and then its transfer (to its tail's arrival at the
	// gateway, or delivery). Intra: source wait, ICN1 transfer. Inter:
	// source wait, ECN1 ascent, concentrator wait for the ICN2 port,
	// ICN2 transfer, dispatcher wait, ECN1 descent. A branch's stage
	// means sum to its mean, and each stage counts every message of
	// its branch.
	IntraStages [2]stats.Accumulator
	InterStages [6]stats.Accumulator
	// FirstHalf and SecondHalf split the measured population by delivery
	// order — a stationarity check: in steady state the two means agree,
	// while an unstable (overdriven) system shows the second half
	// markedly slower even when a short run completes.
	FirstHalf, SecondHalf stats.Accumulator

	Generated uint64  // all messages generated (all phases)
	SimTime   float64 // simulation clock at termination
	Events    uint64  // kernel events processed

	// Saturated is set when the run aborted on backlog or event limits —
	// the offered load exceeds capacity and no steady state exists.
	Saturated bool

	// MaxGatewayUtil is the highest utilization over gateway→ICN2
	// injection channels, the bottleneck the paper identifies.
	MaxGatewayUtil float64
	// MaxChannelUtil is the highest utilization over all channels.
	MaxChannelUtil float64
	// PeakBacklog is the maximum number of in-flight messages observed.
	PeakBacklog int

	// ChannelUtil holds per-channel utilizations when
	// Config.CollectChannelUtil is set.
	ChannelUtil map[string]float64
}

// MeanLatency returns the measured mean.
func (m *Metrics) MeanLatency() float64 { return m.Latency.Mean() }

// message tracks one end-to-end transfer through up to three journeys:
// segs holds its routes (one for intra, three for inter) and seg the
// index of the segment in flight. start[s] is when segment s may start
// (start[0] is the generation time, then each is the previous segment's
// tail arrival at the gateway) and head[s] when its head was granted
// the segment's first channel.
type message struct {
	id          uint64
	src, dst    int
	phase       stats.Phase
	intra       bool
	segs        [3]*wormhole.Route
	seg         int
	start, head [3]float64
}

// segments returns how many journeys m takes: one intra, three inter.
func (m *message) segments() int {
	if m.intra {
		return 1
	}
	return len(m.segs)
}

// Run executes one simulation to completion (all measured messages
// delivered) or to saturation abort.
func Run(cfg Config) (*Metrics, error) {
	cfg.defaults()
	if cfg.Sys == nil {
		return nil, errors.New("sim: nil system")
	}
	if err := cfg.Sys.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Msg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Lambda <= 0 || math.IsNaN(cfg.Lambda) || math.IsInf(cfg.Lambda, 0) {
		return nil, fmt.Errorf("sim: invalid traffic rate %v", cfg.Lambda)
	}

	var kernel des.Kernel
	engine := wormhole.NewEngine(&kernel)
	f, err := buildFabric(engine, cfg.Sys, cfg.Msg.FlitBytes, cfg.BufferDepth)
	if err != nil {
		return nil, err
	}

	pattern := cfg.Pattern
	if pattern == nil {
		pattern = traffic.Uniform{N: f.totalNodes()}
	}
	if pattern.Nodes() != f.totalNodes() {
		return nil, fmt.Errorf("sim: pattern covers %d nodes, system has %d", pattern.Nodes(), f.totalNodes())
	}

	active := cfg.ActiveNodes
	for _, v := range active {
		if v < 0 || v >= f.totalNodes() {
			return nil, fmt.Errorf("sim: active node %d outside system of %d nodes", v, f.totalNodes())
		}
	}

	root := rng.New(cfg.Seed, 0x9b1a_5eed)
	arrivalStream := root.Derive(1)
	destStream := root.Derive(2)
	sources := f.totalNodes()
	if active != nil {
		sources = len(active)
	}
	source := traffic.NewSource(cfg.Lambda, sources, arrivalStream)

	metrics := &Metrics{}
	collector := stats.Collector{WarmupCount: cfg.WarmupCount, MeasureCount: cfg.MeasureCount}
	inflight := 0
	aborted := false

	// Messages and journeys are recycled through freelists: steady state
	// runs at a near-constant live set instead of one message+journey
	// garbage pile per delivery.
	var msgFree []*message
	newMessage := func() *message {
		if n := len(msgFree); n > 0 {
			m := msgFree[n-1]
			msgFree[n-1] = nil
			msgFree = msgFree[:n-1]
			return m
		}
		return &message{}
	}

	deliver := func(msg *message, deliveredAt float64) {
		inflight--
		lat := deliveredAt - msg.start[0]
		collector.Record(msg.phase, lat)
		if msg.phase == stats.Measure {
			metrics.Latency.Add(lat)
			stages := metrics.InterStages[:]
			if msg.intra {
				metrics.Intra.Add(lat)
				stages = metrics.IntraStages[:]
			} else {
				metrics.Inter.Add(lat)
			}
			segs := msg.segments()
			for s := range segs {
				end := deliveredAt
				if s+1 < segs {
					end = msg.start[s+1]
				}
				stages[2*s].Add(msg.head[s] - msg.start[s])
				stages[2*s+1].Add(end - msg.head[s])
			}
			if metrics.Latency.Count() <= cfg.MeasureCount/2 {
				metrics.FirstHalf.Add(lat)
			} else {
				metrics.SecondHalf.Add(lat)
			}
		}
		if cfg.onDeliver != nil {
			cfg.onDeliver(msg, deliveredAt)
		}
		msgFree = append(msgFree, msg)
	}

	// startSegment launches msg's segment msg.seg at time at. Every
	// journey shares one completion handler, which finds its message
	// through the journey's Tag.
	var onSegment func(jn *wormhole.Journey, exits []float64)
	startSegment := func(msg *message, at float64) {
		j := engine.NewJourney()
		j.Route = msg.segs[msg.seg]
		j.Flits = cfg.Msg.Flits
		j.OnComplete = onSegment
		j.Tag = msg
		engine.Start(j, at)
	}

	// Gateways store-and-forward whole messages (the paper's "simple
	// bi-directional buffers", whose modelled service M·t_cs^{I2} covers
	// a full message): segment s+1 starts once segment s's tail has
	// arrived. This is what keeps the gateway's single ICN2 injection
	// port at M·t_cs^{I2} occupancy per message — the system's
	// saturation behaviour — instead of being throttled to the slower
	// ECN1 arrival rate, and it decouples the wormhole dependency chains
	// of the three networks (deadlock freedom).
	onSegment = func(jn *wormhole.Journey, exits []float64) {
		msg := jn.Tag.(*message)
		msg.head[msg.seg] = jn.Acquire[0]
		at := exits[len(exits)-1]
		// The journey's Acquire and exits views are read out, so its
		// buffers go back to the engine.
		engine.Recycle(jn)
		if msg.seg == msg.segments()-1 {
			deliver(msg, at)
			return
		}
		msg.seg++
		msg.start[msg.seg] = at
		startSegment(msg, at)
	}

	launch := func(src int, at float64) {
		dst := pattern.Pick(src, destStream)
		msg := newMessage()
		*msg = message{id: metrics.Generated, src: src, dst: dst,
			phase: collector.NextPhase(), start: [3]float64{at}}
		metrics.Generated++
		inflight++
		if inflight > metrics.PeakBacklog {
			metrics.PeakBacklog = inflight
		}

		srcCluster := f.clusterOf(src)
		dstCluster := f.clusterOf(dst)
		srcLocal := src - f.offsets[srcCluster]
		dstLocal := dst - f.offsets[dstCluster]
		if srcCluster == dstCluster {
			msg.intra = true
			msg.segs[0] = f.intraRoute(srcCluster, srcLocal, dstLocal)
		} else {
			msg.segs = f.interRoutes(srcCluster, dstCluster, srcLocal, dstLocal, dst)
		}
		startSegment(msg, at)
	}

	// Self-perpetuating generation: the paper keeps generating through
	// the drain phase so that measured messages complete under load. An
	// arrival is an engine Post event carrying its source node.
	generate := func() {
		t, src := source.Next()
		if active != nil {
			src = active[src]
		}
		engine.Post(t, src)
	}
	engine.OnPost = func(src int) {
		if collector.DoneMeasuring() || aborted {
			return // stop generating; let the pending events drain
		}
		if inflight >= cfg.MaxBacklog {
			aborted = true
			return
		}
		launch(src, kernel.Now())
		generate()
	}
	generate()

	kernel.Run(func() bool {
		return aborted || collector.DoneMeasuring() || kernel.Processed() >= maxEvents
	})

	metrics.SimTime = kernel.Now()
	metrics.Events = kernel.Processed()
	metrics.Saturated = aborted || !collector.DoneMeasuring()

	// Channel utilization report.
	now := kernel.Now()
	if cfg.CollectChannelUtil {
		metrics.ChannelUtil = make(map[string]float64)
	}
	f.visit(cfg.CollectChannelUtil, func(ch *wormhole.Channel, name string, gateway bool) {
		u := ch.Utilization(now)
		metrics.MaxChannelUtil = math.Max(metrics.MaxChannelUtil, u)
		if gateway {
			metrics.MaxGatewayUtil = math.Max(metrics.MaxGatewayUtil, u)
		}
		if metrics.ChannelUtil != nil {
			metrics.ChannelUtil[name] = u
		}
	})
	return metrics, nil
}
