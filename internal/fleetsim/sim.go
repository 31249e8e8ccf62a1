package fleetsim

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"github.com/ccnet/ccnet/internal/perfab"
	"github.com/ccnet/ccnet/internal/rng"
)

// fleetSalt seeds the trajectory stream ("flts"), keeping fleetsim
// draws independent of every other consumer of the scenario seed.
const fleetSalt = 0x666c7473

// maxSimEvents bounds the total transition count of one trajectory
// (scripted plus stochastic); maxUniqueStates bounds the distinct
// (failed, lambda) states the evaluation phase must rebuild.
const (
	maxSimEvents    = 1 << 20
	maxUniqueStates = 10000
)

// AppliedEvent records one scripted timeline event as the trajectory
// applied it: Applied may fall short of Requested when the class
// population clamps an inject_failure or repair.
type AppliedEvent struct {
	At        float64 `json:"at"`
	Action    string  `json:"action"`
	Class     string  `json:"class,omitempty"`
	Requested int     `json:"requested,omitempty"`
	Applied   int     `json:"applied,omitempty"`
	Lambda    float64 `json:"lambda,omitempty"`
}

// uniqueState is one distinct (failed vector, traffic rate) the
// trajectory visits; the evaluation phase rebuilds each exactly once.
type uniqueState struct {
	failed []int
	lambda float64
}

// occupancy is one contiguous stretch of an epoch spent in a state.
type occupancy struct {
	state int
	dur   float64
}

// epochAcc accumulates one epoch's occupancy in visit order.
type epochAcc struct {
	occ         []occupancy
	transitions int
	endState    int
	maxState    int // highest unique-state id occupying the epoch
}

func (a *epochAcc) absorb(state int, dur float64) {
	if n := len(a.occ); n > 0 && a.occ[n-1].state == state {
		a.occ[n-1].dur += dur
	} else {
		a.occ = append(a.occ, occupancy{state: state, dur: dur})
	}
	a.endState = state
	if state > a.maxState {
		a.maxState = state
	}
}

// recorder splits the trajectory's contiguous constant-state segments
// across the epoch grid.
type recorder struct {
	epoch   float64
	horizon float64
	epochs  []epochAcc
	cur     int
}

func (r *recorder) add(state int, from, to float64) {
	for {
		bound := float64(r.cur+1) * r.epoch
		if r.cur == len(r.epochs)-1 || bound > r.horizon {
			bound = r.horizon
		}
		end := math.Min(to, bound)
		if end > from {
			r.epochs[r.cur].absorb(state, end-from)
		}
		if to <= bound || r.cur >= len(r.epochs)-1 {
			return
		}
		r.cur++
		from = bound
	}
}

// trajectory is the generated time line before evaluation: the unique
// states in first-occurrence order (the engine absorbs them in exactly
// this order), per-epoch occupancy, per-state total sojourn
// time, and the applied scripted events.
type trajectory struct {
	uniques     []uniqueState
	sojourn     []float64
	epochs      []epochAcc
	applied     []AppliedEvent
	transitions int
}

// stateKeyOf interns a (failed, lambda) pair.
func stateKeyOf(failed []int, lambda float64) string {
	b := make([]byte, 0, 8*len(failed)+8)
	for _, f := range failed {
		b = binary.LittleEndian.AppendUint64(b, uint64(f))
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(lambda))
	return string(b)
}

// simulate generates the full trajectory single-threaded: a Gillespie
// next-event walk over the per-class birth–death chains, interleaved
// with the scripted timeline. Identical inputs produce the identical
// trajectory; worker counts never enter here.
func simulate(b *Block, counts []int, rates []perfab.RateSpec, labels []string, probe float64, seed uint64) (*trajectory, error) {
	n := len(counts)
	classIdx := make(map[string]int, n)
	for i, l := range labels {
		classIdx[l] = i
	}

	// Scripted events in time order, ties in declaration order.
	script := append([]EventSpec(nil), b.Timeline...)
	sort.SliceStable(script, func(i, j int) bool { return script[i].At < script[j].At })

	tr := &trajectory{epochs: make([]epochAcc, b.epochs())}
	rec := &recorder{epoch: b.Epoch, horizon: b.Horizon, epochs: tr.epochs}

	failed := make([]int, n)
	lambda := probe
	intern := map[string]int{}
	cur := -1
	reintern := func() {
		key := stateKeyOf(failed, lambda)
		id, ok := intern[key]
		if !ok {
			id = len(tr.uniques)
			intern[key] = id
			tr.uniques = append(tr.uniques, uniqueState{
				failed: append([]int(nil), failed...),
				lambda: lambda,
			})
			tr.sojourn = append(tr.sojourn, 0)
		}
		cur = id
	}
	reintern()

	apply := func(ev *EventSpec) error {
		ae := AppliedEvent{At: ev.At, Action: ev.Action, Class: ev.Class}
		switch ev.Action {
		case ActSetLambda:
			lambda = ev.Lambda
			ae.Lambda = ev.Lambda
		default:
			ci, ok := classIdx[ev.Class]
			if !ok {
				return fieldErr("fleetsim.timeline", "unknown class %q", ev.Class)
			}
			k := ev.Count
			if k == 0 {
				k = 1
			}
			ae.Requested = k
			if ev.Action == ActInjectFailure {
				if room := counts[ci] - failed[ci]; k > room {
					k = room
				}
				failed[ci] += k
			} else {
				if k > failed[ci] {
					k = failed[ci]
				}
				failed[ci] -= k
			}
			ae.Applied = k
		}
		tr.applied = append(tr.applied, ae)
		return nil
	}

	stream := rng.New(seed, fleetSalt).Derive(0)
	stochastic := b.stochastic()
	weights := make([]float64, 2*n)
	totalRate := func() float64 {
		var total float64
		for i := range counts {
			fr := float64(counts[i]-failed[i]) / rates[i].MTTF
			j := failed[i]
			eff := j
			if r := rates[i].Repairers; r > 0 && r < eff {
				eff = r
			}
			rr := float64(eff) / rates[i].MTTR
			weights[i] = fr
			weights[n+i] = rr
			total += fr + rr
		}
		return total
	}

	t := 0.0
	k := 0
	events := 0
	for t < b.Horizon {
		te := b.Horizon
		if k < len(script) && script[k].At < te {
			te = script[k].At
		}
		tNext := te
		stoch := false
		if stochastic {
			if R := totalRate(); R > 0 {
				// The exponential draw is memoryless, so discarding it at a
				// scripted-event boundary and redrawing after is exact.
				if tn := t + stream.Exp(R); tn < te {
					tNext = tn
					stoch = true
				}
			}
		}
		rec.add(cur, t, tNext)
		tr.sojourn[cur] += tNext - t
		t = tNext
		if stoch {
			c := stream.Choice(weights)
			if c < n {
				failed[c]++
			} else {
				failed[c-n]--
			}
			tr.transitions++
			tr.epochs[rec.cur].transitions++
			reintern()
		} else {
			for k < len(script) && script[k].At <= t {
				if err := apply(&script[k]); err != nil {
					return nil, err
				}
				k++
				tr.epochs[rec.cur].transitions++
			}
			reintern()
		}
		events++
		if events > maxSimEvents {
			return nil, fmt.Errorf("fleetsim: trajectory exceeds %d events before t=%g (shorten the horizon or slow the failure/repair rates)", maxSimEvents, t)
		}
		if len(tr.uniques) > maxUniqueStates {
			return nil, fmt.Errorf("fleetsim: trajectory visits more than %d distinct states (shorten the horizon or slow the failure/repair rates)", maxUniqueStates)
		}
	}
	return tr, nil
}
