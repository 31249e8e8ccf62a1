package ccnet_test

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"github.com/ccnet/ccnet/internal/cluster"
	"github.com/ccnet/ccnet/internal/netchar"
)

// table1 renders the paper's Table 1, the system organizations used for
// validation, from the cluster presets.
func table1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1. System organizations for model validation\n")
	fmt.Fprintf(&b, "%-8s %-4s %-3s %s\n", "N", "C", "m", "node organizations")
	for _, sys := range []*cluster.System{cluster.System1120(), cluster.System544()} {
		groups := map[int][]int{}
		var order []int
		for i, c := range sys.Clusters {
			if _, ok := groups[c.TreeLevels]; !ok {
				order = append(order, c.TreeLevels)
			}
			groups[c.TreeLevels] = append(groups[c.TreeLevels], i)
		}
		sort.Ints(order)
		var parts []string
		for _, n := range order {
			idx := groups[n]
			parts = append(parts, fmt.Sprintf("ni=%d i∈[%d,%d] (Ni=%d)",
				n, idx[0], idx[len(idx)-1], sys.ClusterNodes(idx[0])))
		}
		fmt.Fprintf(&b, "%-8d %-4d %-3d %s\n", sys.TotalNodes(), sys.NumClusters(), sys.Ports,
			strings.Join(parts, "  "))
	}
	return b.String()
}

// table2 renders the paper's Table 2, the network characteristics, with
// the Eq 11–12 service times they imply at flit size flitBytes.
func table2(flitBytes int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2. Network characteristics (and Eq 11–12 service times at d_m=%d)\n", flitBytes)
	fmt.Fprintf(&b, "%-6s %-10s %-9s %-9s %-8s %s\n", "net", "bandwidth", "α_net", "α_switch", "t_cn", "t_cs")
	for _, n := range []struct {
		name string
		c    netchar.Characteristics
	}{{"Net.1", netchar.Net1}, {"Net.2", netchar.Net2}} {
		fmt.Fprintf(&b, "%-6s %-10g %-9g %-9g %-8.4g %.4g\n", n.name,
			n.c.Bandwidth, n.c.NetworkLatency, n.c.SwitchLatency,
			n.c.NodeChannelTime(flitBytes), n.c.SwitchChannelTime(flitBytes))
	}
	b.WriteString("assignment: ICN1, ICN2 → Net.1; ECN1 → Net.2 (validation section)\n")
	return b.String()
}

// TestTables holds README.md's static Tables 1 and 2 to the presets they
// describe: each table, rendered from cluster.System1120/System544 and
// netchar.Net1/Net2, must appear in the README verbatim.
func TestTables(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, text string
		want       []string
	}{
		{"table1", table1(), []string{"Table 1", "1120", "544", "32", "16", "ni=1", "ni=5", "Ni=128", "Ni=64"}},
		{"table2", table2(256), []string{"Table 2", "Net.1", "Net.2", "500", "250", "ICN1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, want := range tc.want {
				if !strings.Contains(tc.text, want) {
					t.Errorf("missing %q:\n%s", want, tc.text)
				}
			}
			if !strings.Contains(string(readme), tc.text) {
				t.Errorf("README.md does not hold the rendered table verbatim:\n%s", tc.text)
			}
		})
	}
}
