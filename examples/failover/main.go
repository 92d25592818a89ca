// Failover: what §3.4 is about. A leaf–spine link fails mid-run, making
// the topology asymmetric; DRILL's control plane decomposes the surviving
// paths into symmetric components (the Quiver) and re-weights them, so
// flows keep their bandwidth instead of being capped by the congested
// side's rate. Compare against naive per-packet DRILL without the
// decomposition, and ECMP.
package main

import (
	"fmt"

	"drill"
	"drill/internal/quiver"
	"drill/internal/topo"
)

func main() {
	// First, show the control-plane view: the Fig. 4 decomposition.
	t := drill.LeafSpine(3, 4, 1)
	var s0 drill.NodeID
	for _, n := range t.Nodes {
		if n.Kind == topo.Spine {
			s0 = n.ID
			break
		}
	}
	link := t.LinkBetween(t.Leaves[0], s0)[0]
	t.FailLink(link)
	q := quiver.Build(topo.ComputeRoutes(t))
	comps := q.Decompose(t.Leaves[3], t.Leaves[1])
	fmt.Printf("after failing L0-S0, L3→L1 decomposes into %d symmetric components:\n", len(comps))
	for i, c := range comps {
		fmt.Printf("  component %d: %d path(s), weight %d, capacity %v\n",
			i, c.NumPaths, c.Weight, c.Capacity)
	}
	fmt.Println()

	// Then the data-plane consequence under load.
	const horizon = 5 * drill.Millisecond
	fmt.Printf("%-22s %10s %10s %12s\n", "scheme", "mean[ms]", "p99[ms]", "retransmits")
	for _, cfg := range []struct {
		name string
		bal  drill.Balancer
	}{
		{"ECMP", drill.ECMP()},
		{"DRILL naive (no quiver)", drill.DRILLdm(2, 1)},
		{"DRILL (quiver)", drill.DRILL()},
	} {
		tp := drill.LeafSpine(4, 8, 20)
		c := drill.NewCluster(tp, drill.Options{
			Balancer: cfg.bal, Seed: 9,
			ShimTimeout: 100 * drill.Microsecond,
			RouteDelay:  1 * drill.Millisecond,
		})
		// Fail one core link before traffic (pre-converged asymmetry).
		var spine drill.NodeID
		for _, n := range tp.Nodes {
			if n.Kind == topo.Spine {
				spine = n.ID
				break
			}
		}
		c.FailLink(tp.LinkBetween(tp.Leaves[0], spine)[0], true)
		c.MeasureFrom(500 * drill.Microsecond)
		c.OfferLoad(0.7, drill.FacebookCache, horizon)
		c.Run(horizon + 20*drill.Millisecond)
		fct := c.Stats().FCT("")
		fmt.Printf("%-22s %10.3f %10.3f %12d\n",
			cfg.name, fct.Mean(), fct.Percentile(99), c.Stats().Retransmits())
	}
}
