package quiver

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"drill/internal/topo"
	"drill/internal/units"
)

// fuzzTopo builds a small randomized leaf–spine fabric: 2–5 spines and
// 2–5 leaves, leaf-spine link rates drawn from a heterogeneous set when
// hetero is odd (uniform 40G otherwise), and `fails` randomly chosen
// leaf-spine links failed. Everything derives from the seeded rng, so a
// crashing input reproduces.
func fuzzTopo(seed int64, spinesB, leavesB, hetero, failsB uint8) *topo.Topology {
	spines := int(spinesB%4) + 2
	leaves := int(leavesB%4) + 2
	rng := rand.New(rand.NewSource(seed))
	rates := []units.Rate{10 * units.Gbps, 25 * units.Gbps, 40 * units.Gbps, 100 * units.Gbps}

	tp := topo.New()
	spineIDs := make([]topo.NodeID, spines)
	for s := range spineIDs {
		spineIDs[s] = tp.AddNode(topo.Spine, fmt.Sprintf("s%d", s))
	}
	var core []topo.LinkID
	for l := 0; l < leaves; l++ {
		leaf := tp.AddNode(topo.Leaf, fmt.Sprintf("l%d", l))
		for _, sp := range spineIDs {
			rate := 40 * units.Gbps
			if hetero%2 == 1 {
				rate = rates[rng.Intn(len(rates))]
			}
			core = append(core, tp.AddLink(leaf, sp, rate, 500*units.Nanosecond))
		}
		h := tp.AddNode(topo.Host, fmt.Sprintf("h%d", l))
		tp.AddLink(h, leaf, 10*units.Gbps, 500*units.Nanosecond)
	}
	rng.Shuffle(len(core), func(i, j int) { core[i], core[j] = core[j], core[i] })
	fails := int(failsB) % (len(core)/2 + 1) // never fail a majority
	for i := 0; i < fails; i++ {
		tp.FailLink(core[i])
	}
	return tp
}

// fuzzFatTree builds a k=4 or k=6 fat-tree (kB selects) whose switch-to-
// switch links draw their rates from a heterogeneous set when hetero is
// odd, with `fails` random switch-to-switch links failed. Failures reroute
// through valleys and mixed rates give paths different prefix
// bottlenecks, so the 3-stage DAGs carry several capacity factors per
// channel and several suffix classes per node.
func fuzzFatTree(seed int64, kB, hetero, failsB uint8) *topo.Topology {
	k := 4 + 2*int(kB%2)
	rng := rand.New(rand.NewSource(seed))
	rates := []units.Rate{10 * units.Gbps, 25 * units.Gbps, 40 * units.Gbps, 100 * units.Gbps}
	tp := topo.FatTree(topo.FatTreeConfig{K: k, LinkRate: 10 * units.Gbps})
	var core []topo.LinkID
	for _, l := range tp.Links {
		if tp.Nodes[l.A].Kind == topo.Host || tp.Nodes[l.B].Kind == topo.Host {
			continue
		}
		core = append(core, l.ID)
		if hetero%2 == 1 {
			tp.Links[l.ID].Rate = rates[rng.Intn(len(rates))]
		}
	}
	rng.Shuffle(len(core), func(i, j int) { core[i], core[j] = core[j], core[i] })
	fails := int(failsB) % (len(core)/8 + 1)
	for i := 0; i < fails; i++ {
		tp.FailLink(core[i])
	}
	return tp
}

// fuzzFabric picks a leaf–spine (shape even) or fat-tree (shape odd) fuzz
// topology.
func fuzzFabric(seed int64, shape, a, b, hetero, fails uint8) *topo.Topology {
	if shape%2 == 1 {
		return fuzzFatTree(seed, a, hetero, fails)
	}
	return fuzzTopo(seed, a, b, hetero, fails)
}

func addFabricSeeds(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(1), uint8(0), uint8(0))  // symmetric 2×3, no failures
	f.Add(int64(7), uint8(0), uint8(1), uint8(2), uint8(1), uint8(3))  // heterogeneous rates + failures
	f.Add(int64(42), uint8(0), uint8(3), uint8(0), uint8(0), uint8(5)) // symmetric rates, failures only
	f.Add(int64(-9), uint8(0), uint8(2), uint8(3), uint8(1), uint8(0)) // heterogeneous, intact
	f.Add(int64(3), uint8(1), uint8(0), uint8(0), uint8(0), uint8(0))  // k=4 fat-tree, intact
	f.Add(int64(5), uint8(1), uint8(0), uint8(0), uint8(1), uint8(2))  // k=4, mixed rates, 2 failures
	f.Add(int64(11), uint8(1), uint8(1), uint8(0), uint8(1), uint8(1)) // k=6, mixed rates, 1 failure
	f.Add(int64(13), uint8(1), uint8(1), uint8(0), uint8(0), uint8(4)) // k=6, 4 failures
}

// FuzzDAGMatchesEnumeration checks the DAG passes against the enumerating
// oracle: every channel's score is bit-identical, and every switch's
// decomposition toward every leaf lists the same components in the same
// order with the same first hops, capacity, weight and path count.
func FuzzDAGMatchesEnumeration(f *testing.F) {
	addFabricSeeds(f)
	f.Fuzz(func(t *testing.T, seed int64, shape, a, b, hetero, fails uint8) {
		tp := fuzzFabric(seed, shape, a, b, hetero, fails)
		r := topo.ComputeRoutes(tp)
		q, o := Build(r), oracleBuild(r)
		checkAgainstOracle(t, tp, q, o)
	})
}

func checkAgainstOracle(t *testing.T, tp *topo.Topology, q *Quiver, o *oracleQuiver) {
	t.Helper()
	for c := range q.scores {
		if got, want := q.Score(topo.ChanID(c)), o.scores[topo.ChanID(c)]; got != want {
			t.Fatalf("channel %d: score %#x, enumeration gives %#x", c, got, want)
		}
	}
	for _, n := range tp.Nodes {
		if n.Kind == topo.Host {
			continue
		}
		for _, dst := range tp.Leaves {
			got, want := q.Decompose(n.ID, dst), o.decompose(n.ID, dst)
			if len(got) != len(want) {
				t.Fatalf("%s→%s: %d components, enumeration gives %d",
					n.Name, tp.Nodes[dst].Name, len(got), len(want))
			}
			for i := range got {
				g, w := got[i], want[i]
				if !slices.Equal(g.Scores, o.scoreVector(w.Paths[0])) ||
					!slices.Equal(g.FirstHops, w.FirstHops) ||
					g.Capacity != w.Capacity || g.Weight != w.Weight || g.NumPaths != len(w.Paths) {
					t.Fatalf("%s→%s component %d:\n got scores=%x first=%v cap=%v w=%d paths=%d\nwant scores=%x first=%v cap=%v w=%d paths=%d",
						n.Name, tp.Nodes[dst].Name, i,
						g.Scores, g.FirstHops, g.Capacity, g.Weight, g.NumPaths,
						o.scoreVector(w.Paths[0]), w.FirstHops, w.Capacity, w.Weight, len(w.Paths))
				}
			}
		}
	}
}

// FuzzDecomposePartition checks the §3.4.1 decomposition invariants on
// random small (possibly asymmetric) topologies: for every switch and
// leaf, sorting the enumerated shortest paths by score vector into the
// components must place every path in exactly one component; each
// component's path count, first hops and capacity must match the paths
// placed in it; components must be pairwise asymmetric; and the weights
// must be the capacities scaled to coprime integers.
func FuzzDecomposePartition(f *testing.F) {
	addFabricSeeds(f)
	f.Fuzz(func(t *testing.T, seed int64, shape, a, b, hetero, fails uint8) {
		tp := fuzzFabric(seed, shape, a, b, hetero, fails)
		r := topo.ComputeRoutes(tp)
		q := Build(r)
		for _, n := range tp.Nodes {
			if n.Kind == topo.Host {
				continue
			}
			for _, dst := range tp.Leaves {
				if n.ID == dst {
					continue
				}
				paths := r.Paths(n.ID, dst)
				comps := q.Decompose(n.ID, dst)
				if len(paths) == 0 {
					if comps != nil {
						t.Fatalf("%d→%d: no paths but %d components", n.ID, dst, len(comps))
					}
					continue
				}
				checkDecomposition(t, q, tp, n.ID, dst, paths, comps)
			}
		}
	})
}

func checkDecomposition(t *testing.T, q *Quiver, tp *topo.Topology,
	src, dst topo.NodeID, paths [][]topo.ChanID, comps []Component) {
	t.Helper()
	if len(comps) == 0 {
		t.Fatalf("%d→%d: %d paths decomposed into zero components", src, dst, len(paths))
	}

	// Partition: every shortest path belongs to exactly one component.
	count := make([]int, len(comps))
	capacity := make([]units.Rate, len(comps))
	firstHops := make([]map[topo.ChanID]bool, len(comps))
	for _, p := range paths {
		home := -1
		for ci := range comps {
			if !q.Member(&comps[ci], p) {
				continue
			}
			if home >= 0 {
				t.Fatalf("%d→%d: path %v belongs to components %d and %d", src, dst, p, home, ci)
			}
			home = ci
		}
		if home < 0 {
			t.Fatalf("%d→%d: path %v belongs to no component", src, dst, p)
		}
		count[home]++
		capacity[home] += pathCapacity(tp, p)
		if firstHops[home] == nil {
			firstHops[home] = map[topo.ChanID]bool{}
		}
		firstHops[home][p[0]] = true
	}
	for ci, c := range comps {
		if count[ci] == 0 || count[ci] != c.NumPaths {
			t.Fatalf("%d→%d: component %d reports %d paths, %d paths belong to it",
				src, dst, ci, c.NumPaths, count[ci])
		}
		if capacity[ci] != c.Capacity {
			t.Fatalf("%d→%d: component %d capacity %v != sum of path bottlenecks %v",
				src, dst, ci, c.Capacity, capacity[ci])
		}
		if len(c.FirstHops) != len(firstHops[ci]) {
			t.Fatalf("%d→%d: component %d reports %d first hops, paths use %d",
				src, dst, ci, len(c.FirstHops), len(firstHops[ci]))
		}
		for _, fh := range c.FirstHops {
			if !firstHops[ci][fh] {
				t.Fatalf("%d→%d: component %d lists first hop %d no path starts with",
					src, dst, ci, fh)
			}
		}
	}

	// Maximality: distinct components have distinct score vectors —
	// otherwise they should have been one component.
	for i := range comps {
		for j := i + 1; j < len(comps); j++ {
			if slices.Equal(comps[i].Scores, comps[j].Scores) {
				t.Fatalf("%d→%d: components %d and %d are mutually symmetric", src, dst, i, j)
			}
		}
	}

	// Weights: capacity divided by the gcd of all component capacities
	// (floored at 1), hence coprime whenever no flooring occurred.
	var g int64
	for _, c := range comps {
		g = gcd(g, int64(c.Capacity))
	}
	if g == 0 {
		g = 1
	}
	var wg int64
	for ci, c := range comps {
		want := int64(c.Capacity) / g
		if want == 0 {
			want = 1
		}
		if int64(c.Weight) != want {
			t.Fatalf("%d→%d: component %d weight %d, want %v/%d = %d",
				src, dst, ci, c.Weight, c.Capacity, g, want)
		}
		wg = gcd(wg, int64(c.Weight))
	}
	if wg != 1 {
		t.Fatalf("%d→%d: component weights share common factor %d", src, dst, wg)
	}
}
