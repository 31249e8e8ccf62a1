package sim

import (
	"bufio"
	"flag"
	"fmt"
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
					got = append(got, fmt.Sprintf("%s %016x %016x %016x %016x %d %d %016x %t", name,
						math.Float64bits(m.Latency.Mean()), math.Float64bits(m.Latency.Variance()),
						math.Float64bits(m.Intra.Mean()), math.Float64bits(m.SimTime),
						m.Events, m.Generated, math.Float64bits(m.MaxChannelUtil), m.Saturated))
				}
			}
		}
	}
	checkPins(t, filepath.Join("testdata", "run.pins"), got)
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
