package quiver

import (
	"slices"
	"testing"

	"drill/internal/topo"
	"drill/internal/units"
)

// fig4 builds the paper's Figure 4 topology: leaves L0..L3, spines S0..S2,
// all leaf-spine pairs linked at 40G, one host per leaf.
func fig4() (*topo.Topology, []topo.NodeID, []topo.NodeID) {
	t := topo.New()
	var spines, leaves []topo.NodeID
	for i := 0; i < 3; i++ {
		spines = append(spines, t.AddNode(topo.Spine, "S"))
	}
	for i := 0; i < 4; i++ {
		l := t.AddNode(topo.Leaf, "L")
		leaves = append(leaves, l)
		for _, s := range spines {
			t.AddLink(l, s, 40*units.Gbps, topo.DefaultProp)
		}
		h := t.AddNode(topo.Host, "h")
		t.AddLink(h, l, 10*units.Gbps, topo.DefaultProp)
	}
	return t, leaves, spines
}

func TestSymmetricTopologySingleComponent(t *testing.T) {
	tp, leaves, _ := fig4()
	q := Build(topo.ComputeRoutes(tp))
	for _, src := range leaves {
		for _, dst := range leaves {
			if src == dst {
				continue
			}
			comps := q.Decompose(src, dst)
			if len(comps) != 1 {
				t.Fatalf("symmetric Clos: %d components, want 1", len(comps))
			}
			if len(comps[0].FirstHops) != 3 {
				t.Fatalf("first hops = %d, want 3 spines", len(comps[0].FirstHops))
			}
			if comps[0].Weight != 1 {
				t.Fatalf("weight = %d, want 1", comps[0].Weight)
			}
		}
	}
}

func TestFig4FailureDecomposition(t *testing.T) {
	// Fail L0-S0. L3→L1 paths: P0 via S0 escapes the L0→L1 collision;
	// P1/P2 via S1/S2 share their second hop labels with L0→L1 traffic.
	// Expect components {P0} and {P1, P2} with weights 1 and 2.
	tp, leaves, spines := fig4()
	link := tp.LinkBetween(leaves[0], spines[0])[0]
	tp.FailLink(link)
	q := Build(topo.ComputeRoutes(tp))

	comps := q.Decompose(leaves[3], leaves[1])
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	var solo, pair *Component
	for i := range comps {
		switch comps[i].NumPaths {
		case 1:
			solo = &comps[i]
		case 2:
			pair = &comps[i]
		}
	}
	if solo == nil || pair == nil {
		t.Fatalf("bad split: %d and %d paths", comps[0].NumPaths, comps[1].NumPaths)
	}
	// The solo component goes via S0.
	first := tp.Chan(solo.FirstHops[0])
	if first.To != spines[0] {
		t.Errorf("solo component via %v, want S0", first.To)
	}
	if solo.Weight != 1 || pair.Weight != 2 {
		t.Errorf("weights = %d,%d, want 1,2", solo.Weight, pair.Weight)
	}
	if len(pair.FirstHops) != 2 {
		t.Errorf("pair first hops = %d", len(pair.FirstHops))
	}
	// L2→L1 decomposes identically; L3→L2 traffic is untouched by the
	// failure on the downstream side but its spine links now carry
	// different label sets (S0 lost L0's flows), still symmetric for S1,S2.
	comps21 := q.Decompose(leaves[2], leaves[1])
	if len(comps21) != 2 {
		t.Errorf("L2→L1 components = %d, want 2", len(comps21))
	}
}

func TestHostLinkFailureKeepsSymmetry(t *testing.T) {
	// §3.4.1: "suppose a link from a host h to its top-of-rack switch
	// fails. Then symmetry is still satisfied."
	tp, leaves, _ := fig4()
	host := tp.Hosts[0]
	link := tp.LinkBetween(host, tp.LeafOf(host))[0]
	tp.FailLink(link)
	q := Build(topo.ComputeRoutes(tp))
	comps := q.Decompose(leaves[3], leaves[1])
	if len(comps) != 1 {
		t.Fatalf("host-link failure created asymmetry: %d components", len(comps))
	}
}

func TestDecompositionIsPartition(t *testing.T) {
	// Property over several failure patterns: components partition the path
	// set; intra-component paths are symmetric; inter-component are not.
	tp, leaves, spines := fig4()
	tp.FailLink(tp.LinkBetween(leaves[0], spines[0])[0])
	tp.FailLink(tp.LinkBetween(leaves[2], spines[1])[0])
	r := topo.ComputeRoutes(tp)
	q := Build(r)
	for _, src := range leaves {
		for _, dst := range leaves {
			if src == dst {
				continue
			}
			all := r.Paths(src, dst)
			comps := q.Decompose(src, dst)
			home := make([]int, len(all))
			n := 0
			for ci := range comps {
				n += comps[ci].NumPaths
				for pi, p := range all {
					if q.Member(&comps[ci], p) {
						home[pi] = ci
					}
				}
			}
			if n != len(all) {
				t.Fatalf("partition lost paths: %d vs %d", n, len(all))
			}
			for i := range all {
				for j := i + 1; j < len(all); j++ {
					same := home[i] == home[j]
					if sym := q.Symmetric(all[i], all[j]); sym != same {
						t.Fatalf("paths %v and %v: symmetric=%v but same component=%v",
							all[i], all[j], sym, same)
					}
				}
			}
		}
	}
}

func TestCapacityFactorRational(t *testing.T) {
	cf1 := NewCapFactor(40*units.Gbps, 10*units.Gbps)
	if cf1.Num != 4 || cf1.Den != 1 {
		t.Errorf("cf = %v, want 4/1", cf1)
	}
	cf2 := NewCapFactor(10*units.Gbps, 40*units.Gbps)
	if cf2.Num != 1 || cf2.Den != 4 {
		t.Errorf("cf = %v, want 1/4", cf2)
	}
	if NewCapFactor(10*units.Gbps, 10*units.Gbps) != (CapFactor{1, 1}) {
		t.Error("equal-rate cf should reduce to 1/1")
	}
	if Infinity.Den != 0 {
		t.Error("infinity sentinel broken")
	}
}

func TestHeterogeneousLinksSplitComponents(t *testing.T) {
	// §3.4.3's example: upgrade L0-S0, L0-S1, L1-S0 to 40G, leave the rest
	// at 10G. The three L0→L1 paths become mutually asymmetric via capacity
	// factors (S0→L1 sees cf 1 vs 1/4 mixes; S1→L1 sees cf 4; S2→L1 cf 1).
	t2 := topo.New()
	var spines, leaves []topo.NodeID
	for i := 0; i < 3; i++ {
		spines = append(spines, t2.AddNode(topo.Spine, "S"))
	}
	for i := 0; i < 4; i++ {
		leaves = append(leaves, t2.AddNode(topo.Leaf, "L"))
	}
	for li, l := range leaves {
		for si, s := range spines {
			rate := 10 * units.Gbps
			if (li == 0 && si <= 1) || (li == 1 && si == 0) {
				rate = 40 * units.Gbps
			}
			t2.AddLink(l, s, rate, topo.DefaultProp)
		}
		h := t2.AddNode(topo.Host, "h")
		t2.AddLink(h, l, 10*units.Gbps, topo.DefaultProp)
	}
	q := Build(topo.ComputeRoutes(t2))
	comps := q.Decompose(leaves[0], leaves[1])
	if len(comps) < 2 {
		t.Fatalf("heterogeneous links produced %d components, want >= 2", len(comps))
	}
	// Total weight must reflect capacities: paths via S0 (40G bottleneck)
	// carry 4x the weight of a 10G path component.
	var hiW, loW uint32
	for _, c := range comps {
		if c.Capacity >= 40*units.Gbps {
			hiW = c.Weight
		} else if loW == 0 {
			loW = c.Weight
		}
	}
	if hiW == 0 || loW == 0 || hiW != 4*loW {
		t.Errorf("capacity weights hi=%d lo=%d, want 4:1", hiW, loW)
	}
}

func TestScoresDistinguishLabeledLinks(t *testing.T) {
	tp, leaves, spines := fig4()
	tp.FailLink(tp.LinkBetween(leaves[0], spines[0])[0])
	q := Build(topo.ComputeRoutes(tp))
	// S0→L1 lacks L0-sourced labels; S1→L1 has them.
	s0l1 := topo.ChanID(-1)
	s1l1 := topo.ChanID(-1)
	for _, cid := range tp.Out(spines[0]) {
		if tp.Chan(cid).To == leaves[1] {
			s0l1 = cid
		}
	}
	for _, cid := range tp.Out(spines[1]) {
		if tp.Chan(cid).To == leaves[1] {
			s1l1 = cid
		}
	}
	if q.Score(s0l1) == q.Score(s1l1) {
		t.Fatal("scores fail to distinguish asymmetric links")
	}
	lbl := q.Labels(s1l1)
	foundL0 := false
	for _, l := range lbl {
		if l.Src == leaves[0] && l.Dst == leaves[1] {
			foundL0 = true
		}
	}
	if !foundL0 {
		t.Fatal("S1→L1 missing the L0→L1 label")
	}
}

// TestLabelsMatchOracle checks the inspection recompute of every channel's
// label set against the enumerating builder's stored sets, on a failed
// Fig. 4 fabric and a mixed-rate leaf–spine.
func TestLabelsMatchOracle(t *testing.T) {
	tp, leaves, spines := fig4()
	tp.FailLink(tp.LinkBetween(leaves[0], spines[0])[0])
	mixed := fuzzTopo(7, 1, 2, 1, 0)
	for _, tp := range []*topo.Topology{tp, mixed} {
		r := topo.ComputeRoutes(tp)
		q, o := Build(r), oracleBuild(r)
		for c := range q.scores {
			got, want := q.Labels(topo.ChanID(c)), o.sortedLabels(topo.ChanID(c))
			if !slices.Equal(got, want) {
				t.Fatalf("channel %d: labels %v, enumeration gives %v", c, got, want)
			}
		}
	}
}
