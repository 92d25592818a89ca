package lb

import (
	"fmt"
	"slices"

	"drill/internal/fabric"
	"drill/internal/quiver"
)

// DRILLAsym is the full DRILL design of §3.4: the control plane decomposes
// each switch's paths into symmetric components via the Quiver, the data
// plane hashes flows to a component (capacity-weighted) and runs DRILL(d,m)
// across the component's next hops. On a symmetric fabric the tables
// collapse to one group per destination and behaviour is identical to the
// plain DRILL balancer; with asymmetry it degrades gracefully toward ECMP.
type DRILLAsym struct {
	DRILL
}

// NewDRILLAsym returns DRILL(2,1) with Quiver-based asymmetry handling.
func NewDRILLAsym() *DRILLAsym { return &DRILLAsym{DRILL{D: 2, M: 1}} }

// Name implements fabric.Balancer.
func (d *DRILLAsym) Name() string { return fmt.Sprintf("DRILL(%d,%d)+quiver", d.D, d.M) }

// BuildTables implements fabric.TableBuilder: it installs one forwarding
// group per symmetric component at every switch.
func (d *DRILLAsym) BuildTables(net *fabric.Network) {
	q := quiver.Build(net.Routes)
	net.InstallQuiver(q)
	for _, sw := range net.SwitchList() {
		tables := make([][]fabric.Group, len(net.Topo.Leaves))
		ded := fabric.NewGroupDeduper()
		for li, leaf := range net.Topo.Leaves {
			if sw.Node == leaf {
				continue
			}
			comps := q.Decompose(sw.Node, leaf)
			if len(comps) == 0 {
				continue
			}
			groups := make([]fabric.Group, 0, len(comps))
			for _, c := range comps {
				ports := make([]int32, 0, len(c.FirstHops))
				for _, cid := range c.FirstHops {
					ports = append(ports, net.PortOfChan(cid).Index)
				}
				slices.Sort(ports)
				groups = append(groups, fabric.Group{
					ID:     ded.ID(ports),
					Ports:  ports,
					Weight: c.Weight,
				})
			}
			tables[li] = groups
		}
		net.InstallTables(sw, tables, ded.Count())
	}
}
