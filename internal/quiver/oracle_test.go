package quiver

import (
	"hash/fnv"
	"sort"

	"drill/internal/topo"
	"drill/internal/units"
)

// The enumerating builder: the literal reading of §3.4.1 that lists every
// shortest path, collects every channel's labels in a set, and groups a
// switch's paths by score vector. It is the oracle the DAG passes are
// checked against and is not used outside tests.

// oracleQuiver holds the per-channel label sets and their scores.
type oracleQuiver struct {
	routes *topo.Routes
	labels map[topo.ChanID]map[Label]struct{}
	scores map[topo.ChanID]uint64
}

// oracleBuild labels every channel of every shortest path of every ordered
// leaf pair, then hashes each channel's sorted label set.
func oracleBuild(r *topo.Routes) *oracleQuiver {
	t := r.Topo()
	q := &oracleQuiver{
		routes: r,
		labels: map[topo.ChanID]map[Label]struct{}{},
		scores: map[topo.ChanID]uint64{},
	}
	for _, src := range t.Leaves {
		for _, dst := range t.Leaves {
			if src == dst {
				continue
			}
			for _, path := range r.Paths(src, dst) {
				// Bottleneck capacity from src up to (but excluding) each hop.
				inCap := units.Rate(0) // 0 = no upstream yet (source vertex)
				for _, cid := range path {
					c := t.Chan(cid)
					cf := Infinity
					if inCap > 0 {
						cf = NewCapFactor(inCap, c.Rate)
					}
					set := q.labels[cid]
					if set == nil {
						set = map[Label]struct{}{}
						q.labels[cid] = set
					}
					set[Label{Src: src, Dst: dst, CF: cf}] = struct{}{}
					if inCap == 0 || c.Rate < inCap {
						inCap = c.Rate
					}
				}
			}
		}
	}
	for c := range q.labels {
		labels := q.sortedLabels(c)
		h := fnv.New64a()
		var buf [8]byte
		put := func(v int64) {
			for i := 0; i < 8; i++ {
				buf[i] = byte(v >> (8 * i))
			}
			h.Write(buf[:])
		}
		for _, l := range labels {
			put(int64(l.Src))
			put(int64(l.Dst))
			put(l.CF.Num)
			put(l.CF.Den)
		}
		q.scores[c] = h.Sum64()
	}
	return q
}

func (q *oracleQuiver) sortedLabels(c topo.ChanID) []Label {
	out := make([]Label, 0, len(q.labels[c]))
	for l := range q.labels[c] {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		if a.CF.Num != b.CF.Num {
			return a.CF.Num < b.CF.Num
		}
		return a.CF.Den < b.CF.Den
	})
	return out
}

func (q *oracleQuiver) scoreVector(p []topo.ChanID) []uint64 {
	v := make([]uint64, len(p))
	for i, cid := range p {
		v[i] = q.scores[cid]
	}
	return v
}

// oracleComponent is a component with its member paths listed.
type oracleComponent struct {
	Paths     [][]topo.ChanID
	FirstHops []topo.ChanID
	Capacity  units.Rate
	Weight    uint32
}

// decompose groups the enumerated paths from src toward dst by score
// vector, in first-occurrence order.
func (q *oracleQuiver) decompose(src, dst topo.NodeID) []oracleComponent {
	t := q.routes.Topo()
	paths := q.routes.Paths(src, dst)
	if len(paths) == 0 || src == dst {
		return nil
	}
	byScore := map[string]*oracleComponent{}
	var order []string
	for _, p := range paths {
		key := make([]byte, 0, 8*len(p))
		for _, s := range q.scoreVector(p) {
			for i := 0; i < 8; i++ {
				key = append(key, byte(s>>(8*i)))
			}
		}
		k := string(key)
		comp := byScore[k]
		if comp == nil {
			comp = &oracleComponent{}
			byScore[k] = comp
			order = append(order, k)
		}
		comp.Paths = append(comp.Paths, p)
		comp.Capacity += pathCapacity(t, p)
	}
	comps := make([]oracleComponent, 0, len(byScore))
	caps := make([]Component, 0, len(byScore))
	for _, k := range order {
		c := byScore[k]
		c.FirstHops = distinctFirstHops(c.Paths)
		comps = append(comps, *c)
		caps = append(caps, Component{Capacity: c.Capacity})
	}
	assignWeights(caps)
	for i := range comps {
		comps[i].Weight = caps[i].Weight
	}
	return comps
}

func pathCapacity(t *topo.Topology, p []topo.ChanID) units.Rate {
	var capR units.Rate
	for _, cid := range p {
		r := t.Chan(cid).Rate
		if capR == 0 || r < capR {
			capR = r
		}
	}
	return capR
}

func distinctFirstHops(paths [][]topo.ChanID) []topo.ChanID {
	seen := map[topo.ChanID]bool{}
	var out []topo.ChanID
	for _, p := range paths {
		if !seen[p[0]] {
			seen[p[0]] = true
			out = append(out, p[0])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
