package fleetsim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/ccnet/ccnet/internal/fleetsim"
	"github.com/ccnet/ccnet/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite golden files")

// runExample loads one shipped fleetsim example and runs its study.
func runExample(t *testing.T, name string, procs int) []byte {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	spec, err := scenario.Load(filepath.Join("..", "..", "examples", "scenarios", "fleetsim", name))
	if err != nil {
		t.Fatal(err)
	}
	study, err := spec.FleetStudy()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := (&fleetsim.Engine{}).Run(context.Background(), study)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestExamplesGolden pins both shipped example trajectories — the
// scripted 1120-node cascade and the stochastic repair-crew study — to
// golden report JSON and proves the acceptance property on real specs:
// the report is byte-identical at GOMAXPROCS 1 and 8. Regenerate with
// `go test -run Golden -update ./internal/fleetsim`.
func TestExamplesGolden(t *testing.T) {
	for _, name := range []string{"az-cascade-1120.json", "repair-crew-split.json"} {
		t.Run(name, func(t *testing.T) {
			got := runExample(t, name, 1)
			if wide := runExample(t, name, 8); !bytes.Equal(got, wide) {
				t.Fatal("report differs between GOMAXPROCS=1 and GOMAXPROCS=8")
			}

			golden := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("report drifted from %s:\n got: %s\nwant: %s", golden, got, want)
			}
		})
	}
}
