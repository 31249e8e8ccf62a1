package wormhole

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/ccnet/ccnet/internal/des"
)

// referenceExits recomputes a journey's flit schedule with a plain
// full-matrix evaluation of the recurrence (no frontiers, no eager
// releases), given the acquisition times the engine actually produced.
// It is the specification the engine's incremental evaluation must match.
func referenceExits(channels []*Channel, flits int, acquire, avail []float64) []float64 {
	L := len(channels)
	start := make([][]float64, flits)
	for j := range start {
		start[j] = make([]float64, L)
	}
	for j := 0; j < flits; j++ {
		for k := 0; k < L; k++ {
			var st float64
			if j == 0 {
				st = acquire[k]
			} else {
				// Arrival.
				if k == 0 {
					if avail != nil {
						st = avail[j]
					}
				} else {
					st = start[j][k-1] + channels[k-1].FlitTime
				}
				// Link serialization.
				if ls := start[j-1][k] + channels[k].FlitTime; ls > st {
					st = ls
				}
				// Buffer space at the next stage.
				if k < L-1 {
					b := channels[k+1].BufferDepth
					if j-b >= 0 {
						if bo := start[j-b][k+1]; bo > st {
							st = bo
						}
					}
				}
			}
			start[j][k] = st
		}
	}
	exits := make([]float64, flits)
	for j := 0; j < flits; j++ {
		exits[j] = start[j][L-1] + channels[L-1].FlitTime
	}
	return exits
}

// TestEngineMatchesReferenceUnderContention drives random contended
// workloads with mixed buffer depths and verifies every journey's exit
// schedule bit for bit against the full-matrix reference, and every
// channel's bookkeeping against its acquisition count.
func TestEngineMatchesReferenceUnderContention(t *testing.T) {
	f := func(seed uint16) bool {
		var k des.Kernel
		e := NewEngine(&k)
		depths := []int{1, 1, 2, 4, 16}
		nchan := 4 + int(seed%4)
		pool := make([]*Channel, nchan)
		for i := range pool {
			pool[i] = e.NewBufferedChannel("p", 0.1+float64((int(seed)+i*7)%9)*0.11,
				depths[(int(seed)/3+i)%len(depths)])
		}
		type done struct {
			j     *Journey
			exits []float64
			avail []float64
		}
		var finished []done
		nmsg := 5 + int(seed%11)
		for m := 0; m < nmsg; m++ {
			lo := m % 2
			hi := lo + 2 + m%(nchan-2)
			if hi >= nchan {
				hi = nchan - 1
			}
			var chans []*Channel
			for i := lo; i <= hi; i++ {
				chans = append(chans, pool[i])
			}
			flits := 1 + (m*int(seed)+3)%24
			var avail []float64
			if m%3 == 0 { // exercise upstream-throttled journeys too
				avail = make([]float64, flits)
				for j := range avail {
					avail[j] = float64(m) + float64(j)*0.05
				}
			}
			jn := &Journey{Route: e.NewRoute(chans), Flits: flits, Avail: avail}
			jn.OnComplete = func(j *Journey, exits []float64) {
				cp := append([]float64{}, exits...)
				finished = append(finished, done{j: j, exits: cp, avail: avail})
			}
			e.Start(jn, float64(m)*0.2)
		}
		k.Run(nil)
		if len(finished) != nmsg {
			return false
		}
		for _, d := range finished {
			want := referenceExits(d.j.Route.Channels, d.j.Flits, d.j.Acquire, d.avail)
			for j := range want {
				if math.Float64bits(want[j]) != math.Float64bits(d.exits[j]) {
					t.Logf("flit %d: engine %v, reference %v", j, d.exits[j], want[j])
					return false
				}
			}
		}
		// Channel accounting: acquisitions equal the journeys that used
		// each channel; no channel left busy.
		for _, ch := range pool {
			var uses uint64
			for _, d := range finished {
				for _, c := range d.j.Route.Channels {
					if c == ch {
						uses++
					}
				}
			}
			if ch.Acquisitions != uses {
				t.Logf("channel acquisitions %d, uses %d", ch.Acquisitions, uses)
				return false
			}
			if ch.busy {
				t.Log("channel left busy after drain")
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestReferenceClosedForm anchors the reference itself on the analytic
// uncontended formula, so the differential test cannot drift.
func TestReferenceClosedForm(t *testing.T) {
	var k des.Kernel
	e := NewEngine(&k)
	chans := []*Channel{
		e.NewChannel("a", 0.3), e.NewChannel("b", 0.9), e.NewChannel("c", 0.4),
	}
	acquire := []float64{0, 0.3, 1.2}
	const M = 10
	exits := referenceExits(chans, M, acquire, nil)
	want := 0.3 + 0.9 + 0.4 + (M-1)*0.9
	if math.Abs(exits[M-1]-want) > 1e-9 {
		t.Fatalf("reference delivery %v, want %v", exits[M-1], want)
	}
}
