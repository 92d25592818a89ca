// Package drill is a faithful, simulation-backed implementation of DRILL
// (Distributed Randomized In-network Localized Load-balancing), the
// micro-load-balancing fabric for Clos data center networks from
// Ghorbani et al., SIGCOMM 2017 — together with every substrate its
// evaluation needs: a discrete-event network simulator with a detailed
// multi-engine switch model, TCP NewReno host stacks, the Quiver
// control-plane decomposition for asymmetric fabrics, and the baseline
// load balancers the paper compares against (ECMP, per-packet Random and
// Round-Robin, WCMP, Presto, CONGA).
//
// # Quick start
//
//	topo := drill.LeafSpine(4, 8, 20)          // 4 spines, 8 leaves, 20 hosts/leaf
//	c := drill.NewCluster(topo, drill.Options{Balancer: drill.DRILL()})
//	f := c.StartFlow(c.Hosts()[0], c.Hosts()[100], 1<<20, "")
//	c.Run(50 * drill.Millisecond)
//	fmt.Println(f.Done(), f.FCT())
//
// The algorithm itself — the DRILL(d,m) selector — is also available
// standalone via NewSelector for use outside the simulator.
//
// The cmd/drillsim binary regenerates every table and figure of the
// paper's evaluation; see DESIGN.md and EXPERIMENTS.md.
package drill

import (
	"math/rand"

	"drill/internal/core"
	"drill/internal/fabric"
	"drill/internal/lb"
	"drill/internal/metrics"
	"drill/internal/topo"
	"drill/internal/transport"
	"drill/internal/units"
	"drill/internal/workload"
)

// Re-exported value types.
type (
	// Time is simulated time in nanoseconds.
	Time = units.Time
	// Rate is a link rate in bits per second.
	Rate = units.Rate
	// ByteSize is a data size in bytes.
	ByteSize = units.ByteSize

	// Topology is a fabric graph of hosts, switches and links.
	Topology = topo.Topology
	// NodeID identifies a host or switch in a Topology.
	NodeID = topo.NodeID
	// LinkID identifies an undirected link.
	LinkID = topo.LinkID

	// Balancer is a pluggable per-packet load-balancing policy.
	Balancer = fabric.Balancer
	// Flow is a TCP transfer handle.
	Flow = transport.Sender
	// FCTStats is a sample distribution with exact percentiles.
	FCTStats = metrics.Dist
	// SizeDist is an empirical flow-size distribution.
	SizeDist = workload.SizeDist
)

// Common durations and rates.
const (
	Nanosecond  = units.Nanosecond
	Microsecond = units.Microsecond
	Millisecond = units.Millisecond
	Second      = units.Second

	Kbps = units.Kbps
	Mbps = units.Mbps
	Gbps = units.Gbps

	KB = units.KB
	MB = units.MB
	GB = units.GB
)

// Workload distributions fitted to published datacenter measurements.
var (
	FacebookWeb   = workload.FacebookWeb
	FacebookCache = workload.FacebookCache
	WebSearch     = workload.WebSearch
	DataMining    = workload.DataMining
)

// NewSelector returns a standalone DRILL(d,m) scheduler: each Pick samples
// d random queues, compares them with the m remembered least-loaded ones,
// and returns the least loaded. This is the paper's core algorithm,
// reusable outside the simulator (e.g. to spread work across workers).
func NewSelector(d, m int, rng *rand.Rand) *core.Selector {
	return core.NewSelector(d, m, rng)
}

// LeafSpine builds a symmetric two-stage Clos with 40G core and 10G host
// links. Use LeafSpineConfig via the topology package for full control.
// It panics unless every count is at least 1.
func LeafSpine(spines, leaves, hostsPerLeaf int) *Topology {
	return topo.LeafSpine(topo.LeafSpineConfig{
		Spines: spines, Leaves: leaves, HostsPerLeaf: hostsPerLeaf,
		HostRate: 10 * Gbps, CoreRate: 40 * Gbps,
	})
}

// LeafSpineRates builds a two-stage Clos with explicit link rates.
func LeafSpineRates(spines, leaves, hostsPerLeaf int, hostRate, coreRate Rate) *Topology {
	return topo.LeafSpine(topo.LeafSpineConfig{
		Spines: spines, Leaves: leaves, HostsPerLeaf: hostsPerLeaf,
		HostRate: hostRate, CoreRate: coreRate,
	})
}

// VL2 builds the three-stage VL2-style Clos of the paper's Fig. 10.
func VL2(tors, aggs, ints, hostsPerToR int) *Topology {
	return topo.VL2(topo.VL2Config{ToRs: tors, Aggs: aggs, Ints: ints, HostsPerToR: hostsPerToR})
}

// FatTree builds a k-ary fat-tree.
func FatTree(k int, linkRate Rate) *Topology {
	return topo.FatTree(topo.FatTreeConfig{K: k, LinkRate: linkRate})
}

// Heterogeneous builds the imbalanced-striping fabric of Fig. 13: every
// leaf has two parallel links to its two "near" spines.
func Heterogeneous(spines, leaves, hostsPerLeaf int) *Topology {
	return topo.Heterogeneous(topo.HeterogeneousConfig{
		Spines: spines, Leaves: leaves, HostsPerLeaf: hostsPerLeaf,
	})
}

// Balancer constructors.

// DRILL returns the paper's DRILL(2,1) with Quiver-based asymmetry
// handling (a no-op on symmetric fabrics).
func DRILL() Balancer { return lb.NewDRILLAsym() }

// DRILLdm returns DRILL with explicit sample and memory counts, without
// the asymmetry control plane (for parameter studies). It panics unless
// d >= 1 and m >= 0.
func DRILLdm(d, m int) Balancer {
	core.CheckParams(d, m)
	return &lb.DRILL{D: d, M: m}
}

// ECMP returns per-flow hashing, the datacenter default.
func ECMP() Balancer { return lb.ECMP{} }

// Random returns per-packet uniform spraying.
func Random() Balancer { return lb.Random{} }

// RoundRobin returns per-packet round-robin spraying.
func RoundRobin() Balancer { return lb.RoundRobin{} }

// WCMP returns capacity-weighted per-flow hashing.
func WCMP() Balancer { return lb.WCMP{} }

// Presto returns edge-based 64KB-flowcell source routing; pair it with
// Options.ShimTimeout to restore order at receivers as Presto does.
func Presto() Balancer { return lb.NewPresto() }

// CONGA returns the flowlet-based, congestion-feedback balancer.
func CONGA() Balancer { return lb.NewCONGA() }
