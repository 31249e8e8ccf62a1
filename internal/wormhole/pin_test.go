package wormhole

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ccnet/ccnet/internal/des"
	"github.com/ccnet/ccnet/internal/rng"
)

var update = flag.Bool("update", false, "rewrite testdata digests")

// pinCase is one seeded contended workload of the engine pin.
type pinCase struct {
	name   string
	seed   uint64
	depths []int // buffer depths drawn per channel
}

// pinCases cover pure wormhole (depth 1), shallow buffers, and depths at
// or above every message length (virtual cut-through), alone and mixed.
var pinCases = []pinCase{
	{"depth1", 1, []int{1}},
	{"depth2", 2, []int{2}},
	{"depth4", 3, []int{4}},
	{"deep", 4, []int{40}},
	{"mixed-a", 5, []int{1, 2, 4, 40}},
	{"mixed-b", 6, []int{1, 2, 4, 40}},
	{"mixed-c", 7, []int{1, 1, 2, 40}},
	{"mixed-d", 8, []int{4, 40, 1}},
}

// pinDigest drives one seeded workload and hashes everything the engine
// decides: each journey's acquisition and exit times in completion
// order, and every release in firing order with its time. Journeys run
// over increasing channel-index ranges of a shared pool (acyclic, so no
// deadlock); some are fed by an Avail vector, and some are chained: the
// completion of one starts the next with its exits as Avail. Completed
// journeys are recycled, so slabs are reused across path lengths and
// message sizes.
func pinDigest(c pinCase) string {
	r := rng.New(c.seed, 0x9e3779b9)
	var k des.Kernel
	e := NewEngine(&k)
	pool := make([]*Channel, 10)
	index := make(map[*Channel]int, len(pool))
	for i := range pool {
		pool[i] = e.NewBufferedChannel(fmt.Sprint("p", i), 0.05+r.Float64(), c.depths[r.IntN(len(c.depths))])
		index[pool[i]] = i
	}

	h := sha256.New()
	k.SetDispatch(func(ref int) {
		if ref&refMask == refRelease {
			writeInts(h, -1, index[e.channels[ref>>refBits]])
			writeFloats(h, k.Now())
		}
		e.fire(ref)
	})

	type meta struct{ id, chained int }
	ids := make(map[*Journey]meta)
	next := 0
	path := func() []*Channel {
		lo := r.IntN(len(pool) - 1)
		hi := lo + 1 + r.IntN(len(pool)-lo-1)
		return pool[lo : hi+1]
	}
	var onComplete func(j *Journey, exits []float64)
	start := func(chans []*Channel, flits int, avail []float64, at float64, chained int) {
		j := e.NewJourney()
		j.Route, j.Flits, j.Avail, j.OnComplete = e.NewRoute(chans), flits, avail, onComplete
		ids[j] = meta{next, chained}
		next++
		e.Start(j, at)
	}
	onComplete = func(j *Journey, exits []float64) {
		m := ids[j]
		delete(ids, j)
		writeInts(h, m.id, len(j.Route.Channels), j.Flits)
		writeFloats(h, j.Acquire...)
		writeFloats(h, exits...)
		if m.chained > 0 {
			// Chained successor: its flits arrive as this journey's exit.
			avail := append([]float64(nil), exits...)
			start(path(), j.Flits, avail, exits[0], m.chained-1)
		}
		e.Recycle(j)
	}

	for m := 0; m < 120; m++ {
		at := float64(m) * 0.4 * r.Float64()
		flits := 1 + r.IntN(32)
		var avail []float64
		if r.IntN(3) == 0 {
			avail = make([]float64, flits)
			t := at
			for i := range avail {
				avail[i] = t
				t += 0.3 * r.Float64()
			}
		}
		start(path(), flits, avail, at, r.IntN(3))
	}
	k.Run(nil)
	if len(ids) != 0 || e.Started != e.Completed {
		panic(fmt.Sprintf("%s: %d journeys unfinished", c.name, len(ids)))
	}
	writeInts(h, int(e.Completed), int(k.Processed()))
	return fmt.Sprintf("%x", h.Sum(nil))
}

func writeInts(h hash.Hash, vs ...int) {
	for _, v := range vs {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(v)))
	}
}

func writeFloats(h hash.Hash, vs ...float64) {
	for _, v := range vs {
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
}

// TestEnginePinnedDigests pins the engine bit for bit: every acquisition,
// exit and release time of the seeded workloads, and the order releases
// fire in, must hash to the digests in testdata/engine.digests. Any
// drift — a reordered float operation, a release scheduled at a
// different grant (which reorders same-time events) — fails. Rewrite
// with -update only for an intended behaviour change.
func TestEnginePinnedDigests(t *testing.T) {
	var got []string
	for _, c := range pinCases {
		got = append(got, c.name+" "+pinDigest(c))
	}
	checkDigests(t, filepath.Join("testdata", "engine.digests"), got)
}

// checkDigests compares "name digest" lines against a testdata file, or
// rewrites the file under -update.
func checkDigests(t *testing.T, path string, got []string) {
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
