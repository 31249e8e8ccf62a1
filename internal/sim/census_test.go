package sim_test

import (
	"testing"

	"github.com/ccnet/ccnet/internal/cluster"
	"github.com/ccnet/ccnet/internal/scenario"
	"github.com/ccnet/ccnet/internal/sim"
	"github.com/ccnet/ccnet/internal/wormhole"
)

// falls reports whether a route's flit times decrease somewhere before
// its last channel, which keeps its journeys off the wormhole closed form.
func falls(chans []*wormhole.Channel) bool {
	for k := 1; k < len(chans)-1; k++ {
		if chans[k].FlitTime < chans[k-1].FlitTime {
			return true
		}
	}
	return false
}

// TestPaperRoutesTakeClosedForm: every route the paper's systems compile
// — N=544 and N=1120 at 256 B flits, and the small preset at 128 B —
// has flit times that never decrease before its last channel, so every
// journey of at least as many flits as channels takes the closed form.
// With the Table 2 nets t_cn ≤ t_cs, and a gateway port (an ICN2 switch
// link) is no faster than the Net.2 ECN1 links below it.
func TestPaperRoutesTakeClosedForm(t *testing.T) {
	for _, c := range []struct {
		sys       *cluster.System
		flitBytes int
	}{{cluster.System544(), 256}, {cluster.System1120(), 256}, {cluster.SmallTestSystem(), 128}} {
		routes := 0
		err := sim.EachRoute(c.sys, c.flitBytes, func(segment string, chans []*wormhole.Channel) {
			routes++
			if falls(chans) && !t.Failed() {
				t.Errorf("%s at %d B: %s route %v has a falling flit time", c.sys.Name, c.flitBytes, segment, flitTimes(chans))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s at %d B: %d routes", c.sys.Name, c.flitBytes, routes)
	}
}

// TestMixedNetsFallOnlyIntoFasterECN1: on hetero-mixed-nets, whose two
// n=4 clusters have a custom ECN1 with switch links faster than a net1
// gateway port, the only routes off the closed form are those clusters'
// descents from the gateway, at each of the scenario's flit sizes.
func TestMixedNetsFallOnlyIntoFasterECN1(t *testing.T) {
	spec, err := scenario.Load("../../examples/scenarios/hetero-mixed-nets.json")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := spec.BuildSystem()
	if err != nil {
		t.Fatal(err)
	}
	gateway := sys.ICN2.SwitchChannelTime
	for _, fb := range spec.Traffic.FlitBytes {
		routes, fallen := 0, 0
		err := sim.EachRoute(sys, fb, func(segment string, chans []*wormhole.Channel) {
			routes++
			if !falls(chans) {
				return
			}
			fallen++
			if segment != "down" || chans[0].FlitTime != gateway(fb) || chans[1].FlitTime >= gateway(fb) {
				t.Errorf("%d B: %s route %v falls and is no descent from a gateway into a faster ECN1", fb, segment, flitTimes(chans))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if fallen == 0 {
			t.Errorf("%d B: no route falls; the custom ECN1 no longer undercuts the gateway", fb)
		}
		t.Logf("%d B: %d of %d routes fall", fb, fallen, routes)
	}
}

func flitTimes(chans []*wormhole.Channel) []float64 {
	s := make([]float64, len(chans))
	for i, ch := range chans {
		s[i] = ch.FlitTime
	}
	return s
}
