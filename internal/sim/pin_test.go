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
	"github.com/ccnet/ccnet/internal/trace"
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

// TestTracePinned pins the traced path (Config.Trace set, so messages
// and journeys are not recycled through the freelists) on the three
// systems at a moderate load and one past the model's saturation point.
// Each line hashes every delivered record's ID, endpoints, phase, branch
// and the raw bits of its generation, delivery and segment-start times,
// in delivery order; testdata/trace.pins holds the digests. A traced run
// must also produce the same metric bits as the untraced run of its
// configuration.
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
			cfg := Config{
				Sys:    s.sys(),
				Msg:    netchar.MessageSpec{Flits: 16, FlitBytes: 256},
				Lambda: frac * s.load / 16, Seed: 5,
				WarmupCount: 60, MeasureCount: 400, MaxBacklog: 800,
			}
			plain, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			col := &trace.Collector{}
			cfg.Trace = col
			traced, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s traced: %v", name, err)
			}
			if p, q := metricBits(plain), metricBits(traced); p != q {
				t.Errorf("%s: traced metrics differ from untraced:\n traced   %s\n untraced %s", name, q, p)
			}
			h := fnv.New64a()
			var buf []byte
			for _, r := range col.Records {
				buf = binary.LittleEndian.AppendUint64(buf[:0], r.ID)
				buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Src))
				buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Dst))
				buf = append(buf, r.Phase...)
				if r.Intra {
					buf = append(buf, 1)
				} else {
					buf = append(buf, 0)
				}
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Generated))
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Delivered))
				for _, st := range r.SegmentStarts {
					buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(st))
				}
				h.Write(buf)
			}
			got = append(got, fmt.Sprintf("%s %d %016x %s", name, len(col.Records), h.Sum64(), metricBits(traced)))
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
