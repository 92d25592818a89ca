// Package core implements the DRILL(d,m) scheduling policy — the paper's
// primary contribution (§3.2.2). Upon each packet arrival a forwarding
// engine samples d of the N candidate output queues uniformly at random,
// compares them with the m remembered least-loaded queues from previous
// decisions, forwards to the least loaded of the d+m, and refreshes its
// memory with the m least-loaded queues it just observed.
//
// The classic power-of-two-choices result concerns a single arbiter; DRILL
// extends it to many parallel engines with imprecise queue counters, where
// excessive d or m causes the synchronization effect of §3.2.3 (many
// engines herd onto the same queues). DRILL(2,1) is the recommended
// operating point. §3.2.4 proves DRILL(d,0) (memoryless) unstable and
// DRILL(d,m≥1) stable with 100% throughput for admissible independent
// arrivals; internal/queueing demonstrates both results empirically.
package core

import "math/rand"

// LoadFunc reports the occupancy of candidate queue i; it must be
// non-negative. Lower is less loaded. The function sees the engine's
// (possibly stale) view, matching the delayed-visibility counters of real
// switch hardware (§3.2.1).
type LoadFunc func(i int) int64

// Selector is the DRILL(d,m) per-engine scheduler state for one candidate
// queue set. A Selector is not safe for concurrent use; each forwarding
// engine owns its own.
type Selector struct {
	d, m int
	mem  []int32 // remembered least-loaded queue indices, at most m
	rng  *rand.Rand

	// scratch buffers reused across Pick calls to stay allocation-free.
	cand  []int32
	loads []int64
}

// NewSelector returns a DRILL(d,m) selector drawing samples from rng.
// d must be >= 1; m >= 0 (m = 0 yields the provably unstable memoryless
// variant, kept for the Theorem 1 experiments).
func NewSelector(d, m int, rng *rand.Rand) *Selector {
	CheckParams(d, m)
	return &Selector{
		d: d, m: m, rng: rng,
		mem:   make([]int32, 0, m),
		cand:  make([]int32, 0, d+m),
		loads: make([]int64, 0, d+m),
	}
}

// CheckParams panics unless (d, m) is a valid DRILL configuration: d >= 1
// samples and m >= 0 memory units. Constructors that only record (d, m)
// for selectors built later call it so bad parameters fail where they
// are given, not at the first forwarded packet.
func CheckParams(d, m int) {
	if d < 1 {
		panic("core: DRILL requires d >= 1")
	}
	if m < 0 {
		panic("core: DRILL requires m >= 0")
	}
}

// D reports the configured number of random samples.
func (s *Selector) D() int { return s.d }

// M reports the configured number of memory units.
func (s *Selector) M() int { return s.m }

// Memory returns the currently remembered queue indices (for tests).
func (s *Selector) Memory() []int32 { return s.mem }

// Pick chooses among n candidate queues using load. It returns an index in
// [0, n). Ties favor remembered queues, then earlier samples, making the
// memory "sticky" — the property the stability proof relies on.
func (s *Selector) Pick(n int, load LoadFunc) int {
	if n <= 0 {
		panic("core: Pick with no candidates")
	}
	if n == 1 {
		return 0
	}

	s.cand = s.cand[:0]
	s.loads = s.loads[:0]

	// Memory first (so ties favor it), dropping entries that no longer
	// exist (candidate set shrank after a failure).
	for _, q := range s.mem {
		if int(q) < n {
			s.cand = append(s.cand, q)
			s.loads = append(s.loads, load(int(q)))
		}
	}
	memCnt := len(s.cand)

	// d random samples, without replacement among themselves.
	d := s.d
	if d > n {
		d = n
	}
	for len(s.cand)-memCnt < d {
		q := int32(s.rng.Intn(n))
		dup := false
		for _, c := range s.cand[memCnt:] {
			if c == q {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		s.cand = append(s.cand, q)
		s.loads = append(s.loads, load(int(q)))
	}

	// Least loaded wins; first occurrence wins ties.
	best := 0
	for i := 1; i < len(s.cand); i++ {
		if s.loads[i] < s.loads[best] {
			best = i
		}
	}
	choice := s.cand[best]

	s.refreshMemory()
	return int(choice)
}

// refreshMemory keeps the m least-loaded distinct queues among the current
// candidates (§3.2.2: "the engine updates its m memory units with the
// identities of the least loaded output queues among the samples").
func (s *Selector) refreshMemory() {
	if s.m == 0 {
		return
	}
	// Selection sort of the top-m by load over the (tiny) candidate arrays.
	s.mem = s.mem[:0]
	used := 0
	for len(s.mem) < s.m && used < len(s.cand) {
		best := -1
		for i := range s.cand {
			if s.loads[i] < 0 {
				continue // consumed
			}
			if best == -1 || s.loads[i] < s.loads[best] {
				best = i
			}
		}
		if best == -1 {
			break
		}
		q := s.cand[best]
		s.loads[best] = -1
		used++
		dup := false
		for _, m := range s.mem {
			if m == q {
				dup = true
				break
			}
		}
		if !dup {
			s.mem = append(s.mem, q)
		}
	}
}
