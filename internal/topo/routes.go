package topo

import "math"

// Routes is the equal-cost shortest-path routing state for one topology
// snapshot (the output of the control plane's OSPF/ECMP computation, §3.2).
// It must be recomputed after link failures; the fabric models that
// recomputation delay explicitly.
type Routes struct {
	topo *Topology

	// dist[leafIdx][node] is the hop distance from node to the leaf, counting
	// switch-to-switch hops only (hosts are never transit).
	dist [][]int32

	// next[leafIdx][node] lists the directed channels at node that lie on a
	// shortest path toward the leaf.
	next [][][]ChanID
}

const unreachable = int32(math.MaxInt32)

// ComputeRoutes runs reverse BFS from every leaf over up links, excluding
// hosts as transit nodes, and records all equal-cost next hops.
func ComputeRoutes(t *Topology) *Routes {
	r := &Routes{topo: t}
	n := len(t.Nodes)
	r.dist = make([][]int32, len(t.Leaves))
	r.next = make([][][]ChanID, len(t.Leaves))
	// Reverse adjacency: channels arriving at each node.
	in := make([][]ChanID, n)
	for _, l := range t.Links {
		if !l.Up {
			continue
		}
		in[l.B] = append(in[l.B], ChanID(2*l.ID))   // A→B arrives at B
		in[l.A] = append(in[l.A], ChanID(2*l.ID+1)) // B→A arrives at A
	}
	for li, leaf := range t.Leaves {
		dist := make([]int32, n)
		for i := range dist {
			dist[i] = unreachable
		}
		dist[leaf] = 0
		queue := []NodeID{leaf}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, cid := range in[v] {
				c := t.Chan(cid)
				u := c.From
				if t.Nodes[u].Kind == Host {
					continue // hosts do not forward transit traffic
				}
				if dist[u] == unreachable {
					dist[u] = dist[v] + 1
					queue = append(queue, u)
				}
			}
		}
		next := make([][]ChanID, n)
		for u := 0; u < n; u++ {
			if dist[u] == unreachable || dist[u] == 0 {
				continue
			}
			for _, cid := range t.Out(NodeID(u)) {
				c := t.Chan(cid)
				if t.Nodes[c.To].Kind == Host {
					continue
				}
				if dist[c.To] == dist[u]-1 {
					next[u] = append(next[u], cid)
				}
			}
		}
		r.dist[li] = dist
		r.next[li] = next
	}
	return r
}

// Topo returns the topology this routing state was computed from.
func (r *Routes) Topo() *Topology { return r.topo }

// Dist returns the shortest hop count from node to dstLeaf, or -1 if
// unreachable.
func (r *Routes) Dist(node, dstLeaf NodeID) int {
	d := r.dist[r.topo.LeafIndex(dstLeaf)][node]
	if d == unreachable {
		return -1
	}
	return int(d)
}

// NextHops returns the directed channels at node lying on shortest paths
// toward dstLeaf. The returned slice is shared; callers must not mutate it.
func (r *Routes) NextHops(node, dstLeaf NodeID) []ChanID {
	return r.next[r.topo.LeafIndex(dstLeaf)][node]
}

// Toward returns the next-hop table toward dstLeaf for every node at once:
// entry n is NextHops(n, dstLeaf). The table is shared; callers must not
// mutate it.
func (r *Routes) Toward(dstLeaf NodeID) [][]ChanID {
	return r.next[r.topo.LeafIndex(dstLeaf)]
}

// Paths enumerates every shortest path from node src to leaf dst as channel
// sequences. The number of paths grows with the product of the tiers' fan-
// outs (aggs×cores per leaf pair in a 3-stage fabric), so nothing built for
// every switch and destination should call it: the Quiver walks the
// next-hop DAG instead. It serves WCMP's path weights, Presto's source
// routes, the inspection tools and the tests.
func (r *Routes) Paths(src, dst NodeID) [][]ChanID {
	if src == dst {
		return [][]ChanID{{}}
	}
	var out [][]ChanID
	var walk func(at NodeID, acc []ChanID)
	walk = func(at NodeID, acc []ChanID) {
		if at == dst {
			path := make([]ChanID, len(acc))
			copy(path, acc)
			out = append(out, path)
			return
		}
		for _, cid := range r.NextHops(at, dst) {
			walk(r.topo.Chan(cid).To, append(acc, cid))
		}
	}
	walk(src, nil)
	return out
}

// PathNodes converts a channel-sequence path to the node sequence it visits,
// starting with the source node.
func (r *Routes) PathNodes(src NodeID, path []ChanID) []NodeID {
	nodes := []NodeID{src}
	for _, cid := range path {
		nodes = append(nodes, r.topo.Chan(cid).To)
	}
	return nodes
}
