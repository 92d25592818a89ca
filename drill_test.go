package drill_test

import (
	"math/rand"
	"strings"
	"testing"

	"drill"
)

func TestQuickstartFlow(t *testing.T) {
	topo := drill.LeafSpine(2, 2, 4)
	c := drill.NewCluster(topo, drill.Options{Balancer: drill.DRILL()})
	hosts := c.Hosts()
	f := c.StartFlow(hosts[0], hosts[4], 100*1460, "")
	c.RunToCompletion()
	if !f.Done() {
		t.Fatal("flow did not complete")
	}
	if f.FCT() <= 0 {
		t.Fatal("zero FCT")
	}
	if c.Stats().FlowsFinished() != 1 {
		t.Fatalf("finished = %d", c.Stats().FlowsFinished())
	}
}

func TestAllPublicBalancersRun(t *testing.T) {
	for _, b := range []struct {
		name string
		mk   func() drill.Balancer
	}{
		{"DRILL", drill.DRILL},
		{"DRILLdm", func() drill.Balancer { return drill.DRILLdm(3, 2) }},
		{"ECMP", drill.ECMP},
		{"Random", drill.Random},
		{"RoundRobin", drill.RoundRobin},
		{"WCMP", drill.WCMP},
		{"Presto", drill.Presto},
		{"CONGA", drill.CONGA},
	} {
		b := b
		t.Run(b.name, func(t *testing.T) {
			c := drill.NewCluster(drill.LeafSpine(2, 2, 4), drill.Options{Balancer: b.mk()})
			hosts := c.Hosts()
			var flows []*drill.Flow
			for i := 0; i < 4; i++ {
				flows = append(flows, c.StartFlow(hosts[i%4], hosts[4+i%4], 20*1460, ""))
			}
			c.RunToCompletion()
			for i, f := range flows {
				if !f.Done() {
					t.Fatalf("flow %d incomplete under %s", i, b.name)
				}
			}
		})
	}
}

func TestOfferLoadAndMeasureWindow(t *testing.T) {
	c := drill.NewCluster(drill.LeafSpine(2, 4, 8), drill.Options{Seed: 3})
	c.MeasureFrom(1 * drill.Millisecond)
	c.OfferLoad(0.3, drill.FacebookWeb, 4*drill.Millisecond)
	c.Run(10 * drill.Millisecond)
	st := c.Stats()
	if st.FlowsStarted() < 10 {
		t.Fatalf("too few flows: %d", st.FlowsStarted())
	}
	if st.FCT("").Count() == 0 {
		t.Fatal("no measured FCTs")
	}
}

func TestIncastTagging(t *testing.T) {
	c := drill.NewCluster(drill.LeafSpine(2, 4, 8), drill.Options{})
	c.StartIncast(500*drill.Microsecond, 3*drill.Millisecond)
	c.Run(10 * drill.Millisecond)
	if c.Stats().FCT("incast").Count() == 0 {
		t.Fatal("no incast flows measured")
	}
}

func TestFailLinkPublicAPI(t *testing.T) {
	topo := drill.LeafSpine(2, 2, 4)
	c := drill.NewCluster(topo, drill.Options{RouteDelay: 50 * drill.Microsecond})
	hosts := c.Hosts()
	leaf := c.LeafOf(hosts[0])
	var spine drill.NodeID = -1
	for _, n := range topo.Nodes {
		if n.Kind == 2 { // topo.Spine
			spine = n.ID
			break
		}
	}
	links := c.LinksBetween(leaf, spine)
	if len(links) != 1 {
		t.Fatalf("links = %d", len(links))
	}
	c.At(100*drill.Microsecond, func() { c.FailLink(links[0], false) })
	f := c.StartFlow(hosts[0], hosts[4], 500*1460, "")
	c.RunToCompletion()
	if !f.Done() {
		t.Fatal("flow did not survive the failure")
	}
}

func TestRestoreLinkPublicAPI(t *testing.T) {
	topo := drill.LeafSpine(2, 2, 4)
	c := drill.NewCluster(topo, drill.Options{RouteDelay: 50 * drill.Microsecond})
	hosts := c.Hosts()
	leaf := c.LeafOf(hosts[0])
	var spine drill.NodeID = -1
	for _, n := range topo.Nodes {
		if n.Kind == 2 { // topo.Spine
			spine = n.ID
			break
		}
	}
	links := c.LinksBetween(leaf, spine)
	if len(links) != 1 {
		t.Fatalf("links = %d", len(links))
	}
	l := links[0]
	c.At(100*drill.Microsecond, func() { c.FailLink(l, false) })
	c.At(300*drill.Microsecond, func() { c.RestoreLink(l, false) })
	f := c.StartFlow(hosts[0], hosts[4], 500*1460, "")
	c.RunToCompletion()
	if !f.Done() {
		t.Fatal("flow did not survive the flap cycle")
	}
	if !topo.Links[l].Up {
		t.Fatal("link still marked down after RestoreLink")
	}
	if got := len(c.LinksBetween(leaf, spine)); got != 1 {
		t.Fatalf("restored link not listed by LinksBetween (got %d)", got)
	}
}

func TestSelectorPublicAPI(t *testing.T) {
	s := drill.NewSelector(2, 1, rand.New(rand.NewSource(1)))
	loads := []int64{9, 1, 5, 7}
	counts := make([]int, 4)
	for i := 0; i < 400; i++ {
		counts[s.Pick(4, func(q int) int64 { return loads[q] })]++
	}
	if counts[1] < 200 {
		t.Fatalf("selector ignored the least-loaded queue: %v", counts)
	}
}

func TestQueueImbalanceReads(t *testing.T) {
	c := drill.NewCluster(drill.LeafSpine(4, 4, 8), drill.Options{})
	c.OfferLoad(0.5, drill.FacebookWeb, 2*drill.Millisecond)
	c.Run(1 * drill.Millisecond)
	// Just exercise the read path; value may legitimately be 0 at a quiet instant.
	_ = c.Stats().QueueImbalance()
	if q := c.Stats().MeanHopQueueing(1); q < 0 {
		t.Fatalf("negative queueing %v", q)
	}
}

func TestTopologyBuildersPublic(t *testing.T) {
	if got := len(drill.VL2(4, 4, 2, 5).Hosts); got != 20 {
		t.Errorf("VL2 hosts = %d", got)
	}
	if got := len(drill.FatTree(4, 10*drill.Gbps).Hosts); got != 16 {
		t.Errorf("FatTree hosts = %d", got)
	}
	if got := len(drill.Heterogeneous(4, 4, 6).Hosts); got != 24 {
		t.Errorf("Heterogeneous hosts = %d", got)
	}
}

// TestFacadeRejectsBadParameters checks that bad topology and balancer
// parameters fail where they are given, with the owning package's
// message, rather than as a runtime panic deep in the engine (or not at
// all).
func TestFacadeRejectsBadParameters(t *testing.T) {
	for _, c := range []struct {
		name, want string
		build      func()
	}{
		{"LeafSpine(-1,2,2)", "topo: leaf-spine needs", func() { drill.LeafSpine(-1, 2, 2) }},
		{"LeafSpine(0,0,0)", "topo: leaf-spine needs", func() { drill.LeafSpine(0, 0, 0) }},
		{"LeafSpine(2,2,0)", "topo: leaf-spine needs", func() { drill.LeafSpine(2, 2, 0) }},
		{"DRILLdm(0,0)", "core: DRILL requires d >= 1", func() { drill.DRILLdm(0, 0) }},
		{"DRILLdm(2,-1)", "core: DRILL requires m >= 0", func() { drill.DRILLdm(2, -1) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, c.want) {
					t.Errorf("panic %q, want a message starting %q", msg, c.want)
				}
			}()
			c.build()
		})
	}
	// The smallest valid shapes still build.
	if got := len(drill.LeafSpine(1, 1, 1).Hosts); got != 1 {
		t.Errorf("LeafSpine(1,1,1) hosts = %d, want 1", got)
	}
	if b := drill.DRILLdm(1, 0); b.Name() != "DRILL(1,0)" {
		t.Errorf("DRILLdm(1,0) name = %q", b.Name())
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() float64 {
		c := drill.NewCluster(drill.LeafSpine(2, 4, 8), drill.Options{Seed: 11})
		c.OfferLoad(0.4, drill.FacebookWeb, 3*drill.Millisecond)
		c.Run(15 * drill.Millisecond)
		return c.Stats().FCT("").Mean()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
}
