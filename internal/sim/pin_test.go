package sim

import (
	"bufio"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ccnet/ccnet/internal/cluster"
	"github.com/ccnet/ccnet/internal/netchar"
)

var update = flag.Bool("update", false, "rewrite testdata digests")

// TestRunPinnedMetrics pins the simulator bit for bit over the paper's
// two systems and the small test system, buffer depths from pure
// wormhole to virtual cut-through, three message lengths, and four loads
// from light to past the model's saturation point. Each configuration's
// metrics are recorded as raw float bits in testdata/run.pins; any
// drift fails. Rewrite with -update only for an intended behaviour
// change.
func TestRunPinnedMetrics(t *testing.T) {
	systems := []struct {
		name string
		sys  func() *cluster.System
		// load is λ·M near the model's saturation point, so each rate
		// below sits at the same fraction of capacity for every M.
		load float64
	}{
		{"544", cluster.System544, 0.033},
		{"1120", cluster.System1120, 0.0166},
		{"small", cluster.SmallTestSystem, 0.33},
	}
	var got []string
	for _, s := range systems {
		for _, depth := range []int{1, 2, 4, 16, 40} {
			for _, flits := range []int{8, 16, 32} {
				for _, frac := range []float64{0.2, 0.5, 0.8, 1.2} {
					name := fmt.Sprintf("%s/d%d/m%d/x%g", s.name, depth, flits, frac)
					m, err := Run(Config{
						Sys:    s.sys(),
						Msg:    netchar.MessageSpec{Flits: flits, FlitBytes: 256},
						Lambda: frac * s.load / float64(flits), Seed: 11,
						WarmupCount: 40, MeasureCount: 200, MaxBacklog: 800,
						BufferDepth: depth,
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					got = append(got, name+" "+metricBits(m))
				}
			}
		}
	}
	checkPins(t, filepath.Join("testdata", "run.pins"), got)
}

// metricBits renders the pinned metrics as raw float bits and counts.
func metricBits(m *Metrics) string {
	return fmt.Sprintf("%016x %016x %016x %016x %d %d %016x %t",
		math.Float64bits(m.Latency.Mean()), math.Float64bits(m.Latency.Variance()),
		math.Float64bits(m.Intra.Mean()), math.Float64bits(m.SimTime),
		m.Events, m.Generated, math.Float64bits(m.MaxChannelUtil), m.Saturated)
}

// TestTracePinned pins every delivered message on the three systems at
// a moderate load and one past the model's saturation point. Each line
// hashes, in delivery order and through Config.onDeliver, every
// message's ID, endpoints, phase, branch and the raw bits of its
// generation, delivery and segment head-grant times, then the run's
// metric bits; testdata/trace.pins holds the digests, recorded when the
// simulator still wrote them as a per-message trace.
func TestTracePinned(t *testing.T) {
	systems := []struct {
		name string
		sys  func() *cluster.System
		load float64 // λ·M near saturation, as in TestRunPinnedMetrics
	}{
		{"small", cluster.SmallTestSystem, 0.33},
		{"544", cluster.System544, 0.033},
		{"1120", cluster.System1120, 0.0166},
	}
	var got []string
	for _, s := range systems {
		for _, frac := range []float64{0.5, 1.2} {
			name := fmt.Sprintf("%s/x%g", s.name, frac)
			h := fnv.New64a()
			var buf []byte
			delivered := 0
			m, err := Run(Config{
				Sys:    s.sys(),
				Msg:    netchar.MessageSpec{Flits: 16, FlitBytes: 256},
				Lambda: frac * s.load / 16, Seed: 5,
				WarmupCount: 60, MeasureCount: 400, MaxBacklog: 800,
				onDeliver: func(msg *message, deliveredAt float64) {
					delivered++
					buf = binary.LittleEndian.AppendUint64(buf[:0], msg.id)
					buf = binary.LittleEndian.AppendUint64(buf, uint64(msg.src))
					buf = binary.LittleEndian.AppendUint64(buf, uint64(msg.dst))
					buf = append(buf, msg.phase.String()...)
					if msg.intra {
						buf = append(buf, 1)
					} else {
						buf = append(buf, 0)
					}
					buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(msg.start[0]))
					buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(deliveredAt))
					for _, head := range msg.head[:msg.segments()] {
						buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(head))
					}
					h.Write(buf)
				},
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got = append(got, fmt.Sprintf("%s %d %016x %s", name, delivered, h.Sum64(), metricBits(m)))
		}
	}
	checkPins(t, filepath.Join("testdata", "trace.pins"), got)
}

// checkPins compares result lines against a testdata file, or rewrites
// the file under -update.
func checkPins(t *testing.T, path string, got []string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d lines, run produced %d", path, len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("drift:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
