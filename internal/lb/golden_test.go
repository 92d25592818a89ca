package lb

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"drill/internal/fabric"
	"drill/internal/sim"
	"drill/internal/topo"
	"drill/internal/units"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current table builder")

// goldenTables is the committed record of every group DRILLAsym installs
// on the corpus below. It pins the Quiver table builder against history:
// a change that alters any switch's groups — ports, weights or dedup IDs —
// fails here and must be re-recorded with -update as a named behaviour
// change.
const goldenTables = "testdata/golden/drillasym_tables.txt"

type tableCase struct {
	name string
	topo func() *topo.Topology
}

func nodeNamed(t *topo.Topology, name string) topo.NodeID {
	for _, n := range t.Nodes {
		if n.Name == name {
			return n.ID
		}
	}
	panic("golden: no node " + name)
}

// failBetween fails the first up link between the named nodes.
func failBetween(t *topo.Topology, a, b string) {
	t.FailLink(t.LinkBetween(nodeNamed(t, a), nodeNamed(t, b))[0])
}

func fatTree(k int) *topo.Topology {
	return topo.FatTree(topo.FatTreeConfig{K: k, LinkRate: 10 * units.Gbps})
}

func hetero() *topo.Topology {
	return topo.Heterogeneous(topo.HeterogeneousConfig{Spines: 6, Leaves: 6, HostsPerLeaf: 2,
		HostRate: 10 * units.Gbps, BaseRate: 10 * units.Gbps, ExtraLinks: 2})
}

var tableCorpus = []tableCase{
	{"fig6-leafspine", func() *topo.Topology {
		return topo.LeafSpine(topo.LeafSpineConfig{Spines: 4, Leaves: 8, HostsPerLeaf: 20,
			HostRate: 10 * units.Gbps, CoreRate: 40 * units.Gbps})
	}},
	{"hetero", hetero},
	{"hetero-fail1", func() *topo.Topology {
		t := hetero()
		failBetween(t, "L0", "S0")
		return t
	}},
	{"hetero-fail2", func() *topo.Topology {
		t := hetero()
		failBetween(t, "L0", "S0")
		failBetween(t, "L3", "S5")
		return t
	}},
	{"mixedrate-leafspine", func() *topo.Topology {
		// §3.4.3's example: L0-S0, L0-S1 and L1-S0 upgraded to 40G.
		t := topo.LeafSpine(topo.LeafSpineConfig{Spines: 3, Leaves: 4, HostsPerLeaf: 1,
			HostRate: 10 * units.Gbps, CoreRate: 10 * units.Gbps})
		for _, p := range [][2]string{{"L0", "S0"}, {"L0", "S1"}, {"L1", "S0"}} {
			t.Links[t.LinkBetween(nodeNamed(t, p[0]), nodeNamed(t, p[1]))[0]].Rate = 40 * units.Gbps
		}
		return t
	}},
	{"fattree4", func() *topo.Topology { return fatTree(4) }},
	{"fattree4-fail1", func() *topo.Topology {
		t := fatTree(4)
		failBetween(t, "P0.E0", "P0.A0")
		return t
	}},
	{"fattree4-fail2", func() *topo.Topology {
		t := fatTree(4)
		failBetween(t, "P0.E0", "P0.A0")
		failBetween(t, "P2.A1", "C1.0")
		return t
	}},
	{"fattree4-mixedrate-fail1", func() *topo.Topology {
		// Pod 1's aggregation uplinks run at 40G: prefix bottlenecks
		// differ between paths that climb through pod 1 and the rest.
		t := fatTree(4)
		for _, p := range [][2]string{{"P1.A0", "C0.0"}, {"P1.A0", "C0.1"}, {"P1.A1", "C1.1"}} {
			t.Links[t.LinkBetween(nodeNamed(t, p[0]), nodeNamed(t, p[1]))[0]].Rate = 40 * units.Gbps
		}
		failBetween(t, "P3.E1", "P3.A0")
		return t
	}},
	{"fattree4-mixedrate", func() *topo.Topology {
		// Every third switch-to-switch link at 40G and every fifth at 25G:
		// several prefix bottlenecks reach the same node, so channels carry
		// more than one capacity factor per leaf pair.
		t := fatTree(4)
		for i, l := range t.Links {
			if t.Nodes[l.A].Kind == topo.Host || t.Nodes[l.B].Kind == topo.Host {
				continue
			}
			switch {
			case i%3 == 0:
				t.Links[i].Rate = 40 * units.Gbps
			case i%5 == 0:
				t.Links[i].Rate = 25 * units.Gbps
			}
		}
		return t
	}},
	{"fattree8", func() *topo.Topology { return fatTree(8) }},
	{"fattree8-fail1", func() *topo.Topology {
		t := fatTree(8)
		failBetween(t, "P1.A2", "C2.3")
		return t
	}},
	{"fattree8-fail2", func() *topo.Topology {
		t := fatTree(8)
		failBetween(t, "P1.A2", "C2.3")
		failBetween(t, "P5.E0", "P5.A1")
		return t
	}},
	{"fattree16", func() *topo.Topology { return fatTree(16) }},
}

// renderTables prints, per switch, the groups installed toward each
// destination leaf. Consecutive destinations with identical groups share
// one line ("first..last"), which keeps fat-tree cores and aggregation
// switches to a handful of lines each.
func renderTables(w *bytes.Buffer, name string, tp *topo.Topology) {
	net := fabric.New(sim.New(1), tp, fabric.Config{Balancer: NewDRILLAsym()})
	fmt.Fprintf(w, "# %s: %d switches, %d leaves\n", name, tp.NumSwitches(), len(tp.Leaves))
	for _, sw := range net.SwitchList() {
		fmt.Fprintf(w, "%s groups=%d\n", tp.Nodes[sw.Node].Name, sw.GroupCount())
		first, prev := 0, ""
		flush := func(last int) {
			span := tp.Nodes[tp.Leaves[first]].Name
			if last > first {
				span += ".." + tp.Nodes[tp.Leaves[last]].Name
			}
			fmt.Fprintf(w, "  %s: %s\n", span, prev)
		}
		for li := range tp.Leaves {
			cur := renderGroups(sw.Groups(int32(li)))
			if li > 0 && cur != prev {
				flush(li - 1)
				first = li
			}
			prev = cur
		}
		flush(len(tp.Leaves) - 1)
	}
}

// renderGroups prints one table as "[ports]w<weight>#<dedup id>" per
// group, or "-" for no route (the switch's own leaf, or partitioned).
func renderGroups(groups []fabric.Group) string {
	if len(groups) == 0 {
		return "-"
	}
	parts := make([]string, len(groups))
	for i, g := range groups {
		parts[i] = fmt.Sprintf("%vw%d#%d", g.Ports, g.Weight, g.ID)
	}
	return strings.Join(parts, " ")
}

// TestDRILLAsymTablesMatchGolden rebuilds every corpus fabric and compares
// its installed tables with the committed record. Run with -update to
// rewrite the record after an intended behaviour change.
func TestDRILLAsymTablesMatchGolden(t *testing.T) {
	var got bytes.Buffer
	for _, c := range tableCorpus {
		renderTables(&got, c.name, c.topo())
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenTables), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTables, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenTables)
	if err != nil {
		t.Fatalf("%v (record it with go test ./internal/lb -run TablesMatchGolden -update)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	section := ""
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if strings.HasPrefix(wl[i], "# ") {
			section = wl[i]
		}
		if gl[i] != wl[i] {
			t.Fatalf("tables differ from %s at line %d (%s):\n got: %s\nwant: %s",
				goldenTables, i+1, section, gl[i], wl[i])
		}
	}
	t.Fatalf("tables differ from %s in length: got %d lines, want %d", goldenTables, len(gl), len(wl))
}
