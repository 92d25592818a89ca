// Package quiver implements DRILL's control-plane handling of topological
// asymmetry (§3.4): it builds the labeled multidigraph the paper calls the
// Quiver, scores links by their label sets, and decomposes each switch's
// shortest paths toward each destination into symmetric components —
// maximal sets of paths with identical hop-by-hop label scores. The data
// plane then hashes flows to a component (weighted by aggregate capacity)
// and micro-load-balances only inside it, degrading gracefully from pure
// DRILL (one component) to ECMP (every component a single path).
//
// No path is ever listed. Build makes two passes over each destination's
// shortest-path DAG (the routes' next-hop sets): a forward sweep per leaf
// pair that streams every channel's labels into its score, then a
// reverse-distance pass per destination that memoizes, at every node, the
// classes of paths onward to the leaf. Decompose reads a switch's
// components off that memo.
package quiver

import (
	"fmt"
	"slices"

	"drill/internal/topo"
	"drill/internal/units"
)

// CapFactor is the capacity factor cf(a,b,p) of §3.4.3 as an exact reduced
// rational: the input rate of the path into a divided by the rate of (a,b).
// The source vertex uses the infinity sentinel {1, 0}.
type CapFactor struct {
	Num, Den int64
}

// Infinity is the capacity factor at the path's source vertex.
var Infinity = CapFactor{1, 0}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// NewCapFactor reduces in/out to lowest terms.
func NewCapFactor(in, out units.Rate) CapFactor {
	if in == out {
		return CapFactor{1, 1}
	}
	n, d := int64(in), int64(out)
	g := gcd(n, d)
	return CapFactor{n / g, d / g}
}

func (c CapFactor) String() string {
	if c.Den == 0 {
		return "inf"
	}
	return fmt.Sprintf("%d/%d", c.Num, c.Den)
}

// less orders capacity factors by (Num, Den), the order labels hash in.
func (c CapFactor) less(o CapFactor) bool {
	return c.Num < o.Num || (c.Num == o.Num && c.Den < o.Den)
}

// Label marks one use of a directed link: it lies on a shortest path from
// leaf Src to leaf Dst with the given capacity factor (§3.4.1, §3.4.3).
type Label struct {
	Src, Dst topo.NodeID
	CF       CapFactor
}

// Quiver is the labeled multidigraph, kept as what the data plane needs
// from it: per directed channel the hash score of its label set, and per
// destination leaf the memoized path classes of its shortest-path DAG. The
// label sets themselves are not stored; Labels recomputes one.
type Quiver struct {
	routes *topo.Routes
	to     []topo.NodeID // channel → the node it enters
	rate   []units.Rate  // channel → link rate
	scores []uint64      // channel → label-set score, 0 if unlabeled
	dests  []destDAG     // leaf index → pass-2 memo
}

// Build computes the Quiver for the routing snapshot: every channel on a
// shortest path from leaf src to leaf dst gains one (src, dst, cf) label
// per distinct capacity factor those paths give it, and the labels are
// hashed into the channel's score. The per-destination decomposition memo
// is built from the scores.
func Build(r *topo.Routes) *Quiver {
	t := r.Topo()
	nch := 2 * len(t.Links)
	q := &Quiver{
		routes: r,
		to:     make([]topo.NodeID, nch),
		rate:   make([]units.Rate, nch),
		scores: make([]uint64, nch),
	}
	for c := range q.to {
		ch := t.Chan(topo.ChanID(c))
		q.to[c], q.rate[c] = ch.To, ch.Rate
	}
	q.hashLabels()
	q.buildDAGs()
	return q
}

// FNV-64a parameters: scores hash the byte stream hash/fnv's New64a would
// see, one channel state at a time.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvPrimePow[m] is fnvPrime^m: the FNV-64a step for a zero byte is a
// bare multiply, so a run of m zero bytes is one multiply by it.
var fnvPrimePow = func() (p [9]uint64) {
	p[0] = 1
	for m := 1; m < len(p); m++ {
		p[m] = p[m-1] * fnvPrime
	}
	return p
}()

// fnvInt64 folds v's eight little-endian bytes into FNV-64a state h. Node
// IDs and reduced capacity factors are small, so the high zero bytes
// collapse into one multiply.
func fnvInt64(h uint64, v int64) uint64 {
	u, n := uint64(v), 0
	for ; u != 0; u >>= 8 {
		h ^= u & 0xff
		h *= fnvPrime
		n++
	}
	return h * fnvPrimePow[8-n]
}

// hashLabels is pass 1. Leaf pairs are swept in (src, dst) order and each
// channel's capacity factors arrive sorted, so every channel's labels
// stream into its FNV-64a state in (Src, Dst, CF) order: the score equals
// the hash of the channel's sorted label set, with no set ever built.
// Channels no shortest leaf-to-leaf path uses keep score 0.
func (q *Quiver) hashLabels() {
	t := q.routes.Topo()
	labeled := make([]bool, len(q.scores))
	for c := range q.scores {
		q.scores[c] = fnvOffset
	}
	s := newSweeper(q, len(t.Nodes))
	for _, src := range t.Leaves {
		for _, dst := range t.Leaves {
			if src == dst {
				continue
			}
			s.run(src, q.routes.Toward(dst), func(c topo.ChanID, cfs []CapFactor) {
				labeled[c] = true
				h := q.scores[c]
				for _, cf := range cfs {
					h = fnvInt64(h, int64(src))
					h = fnvInt64(h, int64(dst))
					h = fnvInt64(h, cf.Num)
					h = fnvInt64(h, cf.Den)
				}
				q.scores[c] = h
			})
		}
	}
	for c, ok := range labeled {
		if !ok {
			q.scores[c] = 0
		}
	}
}

// sweeper is pass 1's scratch space, reused across leaf pairs.
type sweeper struct {
	to   []topo.NodeID
	rate []units.Rate
	// caps[n] holds the distinct bottleneck rates of the path prefixes
	// from the source to node n; 0 stands for the source itself.
	caps [][]units.Rate
	// cfs[c] holds channel c's distinct capacity factors, sorted.
	cfs         [][]CapFactor
	used        []topo.ChanID
	level, next []topo.NodeID
}

func newSweeper(q *Quiver, nodes int) *sweeper {
	return &sweeper{to: q.to, rate: q.rate,
		caps: make([][]units.Rate, nodes), cfs: make([][]CapFactor, len(q.to))}
}

// run sweeps the shortest-path DAG from src toward the leaf whose next-hop
// table is next, one distance level at a time, and then calls emit once
// per DAG channel with the channel's distinct capacity factors in
// (Num, Den) order.
func (s *sweeper) run(src topo.NodeID, next [][]topo.ChanID, emit func(topo.ChanID, []CapFactor)) {
	s.level = append(s.level[:0], src)
	s.caps[src] = append(s.caps[src][:0], 0)
	for len(s.level) > 0 {
		s.next = s.next[:0]
		for _, u := range s.level {
			for _, c := range next[u] {
				v, rate := s.to[c], s.rate[c]
				if len(s.caps[v]) == 0 {
					s.next = append(s.next, v)
				}
				if len(s.cfs[c]) == 0 {
					s.used = append(s.used, c)
				}
				for _, in := range s.caps[u] {
					cf, out := Infinity, rate
					if in > 0 {
						cf = NewCapFactor(in, rate)
						out = min(in, rate)
					}
					s.cfs[c] = insertCF(s.cfs[c], cf)
					if !slices.Contains(s.caps[v], out) {
						s.caps[v] = append(s.caps[v], out)
					}
				}
			}
			s.caps[u] = s.caps[u][:0]
		}
		s.level, s.next = s.next, s.level
	}
	for _, c := range s.used {
		emit(c, s.cfs[c])
		s.cfs[c] = s.cfs[c][:0]
	}
	s.used = s.used[:0]
}

// insertCF adds cf to the sorted set cfs.
func insertCF(cfs []CapFactor, cf CapFactor) []CapFactor {
	i := len(cfs)
	for i > 0 && cf.less(cfs[i-1]) {
		i--
	}
	if i > 0 && cfs[i-1] == cf {
		return cfs
	}
	if i == len(cfs) {
		return append(cfs, cf)
	}
	return slices.Insert(cfs, i, cf)
}

// Score returns the label-set score of a channel (0 if the channel carries
// no shortest-path traffic).
func (q *Quiver) Score(c topo.ChanID) uint64 { return q.scores[c] }

// Labels recomputes the channel's label set, sorted by (Src, Dst, CF), for
// inspection. It repeats pass 1 for every leaf pair, so it is for tools
// and tests, not for table building.
func (q *Quiver) Labels(c topo.ChanID) []Label {
	t := q.routes.Topo()
	s := newSweeper(q, len(t.Nodes))
	var out []Label
	for _, src := range t.Leaves {
		for _, dst := range t.Leaves {
			if src == dst {
				continue
			}
			s.run(src, q.routes.Toward(dst), func(ch topo.ChanID, cfs []CapFactor) {
				if ch != c {
					return
				}
				for _, cf := range cfs {
					out = append(out, Label{Src: src, Dst: dst, CF: cf})
				}
			})
		}
	}
	return out
}

// Symmetric reports whether two paths (channel sequences) are symmetric:
// same hop count with pairwise equal link scores (§3.4.1's definition).
func (q *Quiver) Symmetric(p1, p2 []topo.ChanID) bool {
	if len(p1) != len(p2) {
		return false
	}
	for i := range p1 {
		if q.Score(p1[i]) != q.Score(p2[i]) {
			return false
		}
	}
	return true
}

// Member reports whether path p belongs to component c: its hop-by-hop
// scores are c.Scores.
func (q *Quiver) Member(c *Component, p []topo.ChanID) bool {
	if len(p) != len(c.Scores) {
		return false
	}
	for i, cid := range p {
		if q.Score(cid) != c.Scores[i] {
			return false
		}
	}
	return true
}

// Component is one symmetric path group from a switch toward a leaf.
type Component struct {
	// Scores is the hop-by-hop score vector every member path shares; it
	// identifies the component (Member tests a path against it).
	Scores []uint64
	// NumPaths is how many shortest paths the component holds.
	NumPaths int
	// FirstHops are the distinct first channels of the component's paths —
	// the ports the data plane micro-load-balances across.
	FirstHops []topo.ChanID
	// Capacity is the sum of the member paths' bottleneck capacities; the
	// data-plane weight is proportional to it.
	Capacity units.Rate
	// Weight is Capacity normalized across the decomposition's components
	// to small coprime integers.
	Weight uint32
}

// vec is one interned score vector: the head hop's score and the index of
// the tail vector in destDAG.cells. Index 0 is the empty vector, so a vec
// is the key that groups paths from one node: two paths share a score
// vector exactly when their first-hop scores and tail indexes are equal.
type vec struct {
	score uint64
	tail  int32
}

// suffixClass is the set of shortest paths from one node to the
// destination leaf that share a score vector and a bottleneck rate.
type suffixClass struct {
	vec   int32      // index of the score vector in destDAG.cells
	bneck units.Rate // bottleneck rate; 0 for the empty path at the leaf
	paths int64
}

// destDAG is pass 2's memo for one destination leaf: each node's suffix
// classes in the order a depth-first walk along the next hops first meets
// them.
type destDAG struct {
	next    [][]topo.ChanID
	cells   []vec
	span    [][2]int32 // node → [start, end) of its classes in classes
	classes []suffixClass
}

// bottleneck extends a suffix's bottleneck by one more hop of the given
// rate.
func bottleneck(rate, suffix units.Rate) units.Rate {
	if suffix == 0 {
		return rate
	}
	return min(rate, suffix)
}

// buildDAGs is pass 2: for every destination leaf, nodes are visited in
// increasing distance, and a node's classes are its next hops' classes
// extended by one hop, merged in next-hop order. Merging keeps first
// occurrences in place, so each node's list is in depth-first first-
// occurrence order — the order an enumeration of its paths would meet
// the classes.
func (q *Quiver) buildDAGs() {
	t := q.routes.Topo()
	q.dests = make([]destDAG, len(t.Leaves))
	intern := map[vec]int32{}
	var byDist [][]topo.NodeID
	for li, dst := range t.Leaves {
		clear(intern)
		for i := range byDist {
			byDist[i] = byDist[i][:0]
		}
		for n := range t.Nodes {
			if d := q.routes.Dist(topo.NodeID(n), dst); d > 0 {
				for len(byDist) <= d {
					byDist = append(byDist, nil)
				}
				byDist[d] = append(byDist[d], topo.NodeID(n))
			}
		}
		d := &q.dests[li]
		d.next = q.routes.Toward(dst)
		d.cells = []vec{{}}
		d.span = make([][2]int32, len(t.Nodes))
		d.classes = []suffixClass{{paths: 1}}
		d.span[dst] = [2]int32{0, 1}
		for _, level := range byDist {
			for _, u := range level {
				start := len(d.classes)
				for _, c := range d.next[u] {
					for _, e := range d.classesOf(q.to[c]) {
						key := vec{q.scores[c], e.vec}
						id, ok := intern[key]
						if !ok {
							id = int32(len(d.cells))
							d.cells = append(d.cells, key)
							intern[key] = id
						}
						d.add(start, suffixClass{id, bottleneck(q.rate[c], e.bneck), e.paths})
					}
				}
				d.span[u] = [2]int32{int32(start), int32(len(d.classes))}
			}
		}
	}
}

func (d *destDAG) classesOf(n topo.NodeID) []suffixClass {
	s := d.span[n]
	return d.classes[s[0]:s[1]]
}

// add merges class c into the classes being built from index start on.
func (d *destDAG) add(start int, c suffixClass) {
	for i := start; i < len(d.classes); i++ {
		if e := &d.classes[i]; e.vec == c.vec && e.bneck == c.bneck {
			e.paths += c.paths
			return
		}
	}
	d.classes = append(d.classes, c)
}

// vector materializes the score vector of key.
func (d *destDAG) vector(key vec) []uint64 {
	n := 1
	for i := key.tail; i != 0; i = d.cells[i].tail {
		n++
	}
	out := make([]uint64, 1, n)
	out[0] = key.score
	for i := key.tail; i != 0; i = d.cells[i].tail {
		out = append(out, d.cells[i].score)
	}
	return out
}

// Decompose partitions the shortest paths from node src toward leaf dst
// into symmetric components and assigns capacity-proportional weights
// (§3.4.1 step 2). Components come in the order a depth-first enumeration
// of the paths along the next hops would first meet them. It returns nil
// when src has no path to dst.
func (q *Quiver) Decompose(src topo.NodeID, dst topo.NodeID) []Component {
	if src == dst {
		return nil
	}
	d := &q.dests[q.routes.Topo().LeafIndex(dst)]
	next := d.next[src]
	var keyBuf [8]vec
	keys := keyBuf[:0]
	var comps []Component
	for _, c := range next {
		for _, e := range d.classesOf(q.to[c]) {
			key := vec{q.scores[c], e.vec}
			i := slices.Index(keys, key)
			if i < 0 {
				i = len(keys)
				keys = append(keys, key)
				comps = append(comps, Component{
					Scores:    d.vector(key),
					FirstHops: make([]topo.ChanID, 0, len(next)),
				})
			}
			comp := &comps[i]
			comp.NumPaths += int(e.paths)
			comp.Capacity += bottleneck(q.rate[c], e.bneck) * units.Rate(e.paths)
			if n := len(comp.FirstHops); n == 0 || comp.FirstHops[n-1] != c {
				comp.FirstHops = append(comp.FirstHops, c)
			}
		}
	}
	if len(comps) == 0 {
		return nil
	}
	for i := range comps {
		slices.Sort(comps[i].FirstHops)
	}
	assignWeights(comps)
	return comps
}

// assignWeights scales component capacities down to small integers with
// gcd 1, as a hardware WCMP-style table would store them.
func assignWeights(comps []Component) {
	var g int64
	for i := range comps {
		g = gcd(g, int64(comps[i].Capacity))
	}
	if g == 0 {
		g = 1
	}
	for i := range comps {
		comps[i].Weight = uint32(int64(comps[i].Capacity) / g)
		if comps[i].Weight == 0 {
			comps[i].Weight = 1
		}
	}
}
