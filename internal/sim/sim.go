// Package sim provides the discrete-event simulation engine underlying the
// DRILL fabric models. It offers a nanosecond-resolution virtual clock, an
// O(1) hierarchical timing-wheel scheduler with deterministic FIFO
// tie-breaking (a binary-heap overflow tier catches far-future events),
// cancellable re-armable Timers whose entries are location-tracked across
// every tier (so a Reset or Stop relocates/deletes the live entry instead
// of abandoning a tombstone), and seeded random-number streams so every
// run is reproducible.
//
// # Scheduler structure
//
// Events live in one of three tiers, picked by how far ahead of the wheel
// cursor they land:
//
//   - near: the open wheel bucket's 1.024µs window, itself a second wheel
//     level. The window is split into 256 sub-buckets of 4ns each, with a
//     four-word occupancy bitmap and a sub-bucket cursor. An untracked
//     event landing ahead of the cursor is appended to its sub-bucket;
//     when the dispatch list runs out, the lowest occupied sub-bucket is
//     sorted into it (a handful of events, so an insertion sort) and
//     consumed by a cursor. A small index-tracked min-heap holds the rest
//     of the window: Timer-owned entries, and events landing at or behind
//     the sub-bucket cursor (zero-delay events, mostly). Dispatch
//     interleaves the list and the heap by direct (time, seq) comparison.
//     This is the tier a packet simulation lives in: each hop's 60ns
//     visibility update and 200ns wire arrival land in the open window.
//   - wheel: a calendar queue of fixed-width buckets covering the short
//     horizon that dominates a packet simulation (tx-done, link-depart,
//     visibility updates, RTO resets). Insertion and timer cancellation
//     are O(1) appends/swap-removes; when the cursor reaches a bucket, its
//     Timer-owned entries move to the near heap and the rest are dealt
//     into the sub-buckets.
//   - far: the index-tracked heap retained from the pre-wheel scheduler,
//     as the overflow tier for events beyond the wheel horizon. Events
//     cascade from far into the wheel as the cursor advances.
//
// Determinism argument: dispatch order is (at, seq) everywhere. The near
// tier compares that key directly between the dispatch list and the heap.
// A sub-bucket only ever holds events of its own 4ns slice of the window,
// and it is sorted whole before any of it dispatches, so insertion order
// never matters; a sub-bucket that has been poured takes no further
// events (they go to the heap). A sub-bucket is poured only when the heap
// minimum is at or after the sub-bucket's start, so no heap entry earlier
// than an unpoured sub-bucket event can be overtaken: until the list is
// refilled, the heap minimum is the global minimum. The same holds one
// level up: a wheel bucket only holds events of one bucket window per
// revolution (anything nearer goes to the near tier, anything farther to
// a later bucket or the far tier), and the far tier is a heap on the same
// key that only feeds the wheel. Hence the wheel scheduler dispatches in
// exactly the order the plain heap would — NewHeapOnly exists to assert
// that equivalence in tests, byte for byte.
package sim

import (
	"math/bits"
	"math/rand"
	"slices"

	"drill/internal/units"
)

// Wheel geometry. Buckets are 1.024µs wide — comparable to one MTU
// serialization at 10Gbps, so back-to-back packet events land a bucket or
// two ahead — and the 4096-bucket span covers ~4.2ms, which swallows RTO
// re-arms (1ms floor) and control-plane reconvergence (1ms) on the O(1)
// path. Only drain horizons and backed-off RTOs overflow to the far tier.
const (
	wheelShift = 10                                  // log2 bucket width in ns
	wheelBits  = 12                                  // log2 bucket count
	wheelSize  = 1 << wheelBits                      // buckets per revolution
	wheelMask  = wheelSize - 1                       // bucket index mask
	bucketW    = units.Nanosecond << wheelShift      // bucket width
	horizonW   = units.Time(wheelSize) << wheelShift // wheel span
)

// Open-window geometry. The cursor bucket's window is split into 4ns
// sub-buckets: narrow enough that one rarely holds more than a few events
// (so sorting it at pour time is a short insertion sort), wide enough
// that 256 of them span a whole bucket and a four-word bitmap indexes
// them.
const (
	subShift   = 2                            // log2 sub-bucket width in ns
	subBits    = wheelShift - subShift        // log2 sub-buckets per window
	subCount   = 1 << subBits                 // sub-buckets per window
	subW       = units.Nanosecond << subShift // sub-bucket width
	subWords   = subCount / 64                // occupancy bitmap words
	sortInline = 32                           // longest sub-bucket insertion-sorted
)

// Event-key flag bits. The FIFO tie-break sequence number is packed above
// the flag bits, so one uint64 comparison orders same-time events and
// carries the daemon/observer/tracked classification without widening the
// event.
const (
	keyDaemon  uint64 = 1 << 0 // never keeps Run alive
	keySilent  uint64 = 1 << 1 // excluded from Executed accounting
	keyTracked uint64 = 1 << 2 // a Timer owns this entry (location-tracked)
	keyShift          = 3
)

// Event-key class bits. The top two key bits partition same-time events
// into three classes, dispatched in class order: global events (workload
// arrivals, failure injection, daemon tickers — anything a sharded run
// executes at a window barrier), then shard-local events (the data plane's
// tx/visibility/timer events), then wire arrivals (packets landing on a
// port after propagation). The class order is what makes the sharded
// engine byte-identical to the sequential one: a barrier runs all globals
// at time T before any shard touches its local events at T, exactly as a
// single scheduler sorting on these keys would, and a cross-shard arrival
// carries a key derived from engine-invariant state (port index and
// per-port departure sequence, see ArrivalKey) rather than from any one
// scheduler's private counter.
const (
	classShift          = 62
	classGlobal  uint64 = 0 << classShift // barrier-executed: workload, control plane, daemons
	classLocal   uint64 = 1 << classShift // shard-private data-plane events
	classArrival uint64 = 2 << classShift // wire arrivals; key from ArrivalKey
)

// Timer tier tags (Timer.tier, eventHeap.tier).
const (
	tierNone  int8 = iota // not scheduled
	tierNear              // near heap index Timer.idx
	tierFar               // far heap index Timer.idx
	tierWheel             // wheel bucket Timer.bucket, slot Timer.idx
)

// event is deliberately pointer-free: 24 bytes of plain data. The callback
// (and owning Timer, for tracked entries) lives in the Sim's slot table,
// referenced by id. Events are copied constantly — heap sifts, bucket
// pours, dispatch-list sorts — and keeping them POD means those copies are
// raw memmoves with no write barriers, and none of the scheduler's arrays
// (4096 wheel buckets, two heaps, the dispatch list) hold pointers the
// garbage collector has to scan.
//
// id >= 0 indexes Sim.slots (a per-event slot, recycled through a free
// list when the event dispatches or is cancelled); id < 0 is ^id into
// Sim.perms, the registry of permanent callbacks interned once with
// Register and never released — the fabric's per-port callbacks take this
// path, skipping slot churn entirely.
type event struct {
	at  units.Time
	key uint64 // seq<<keyShift | flags; orders same-time events FIFO
	id  int32  // slot index (>= 0) or ^perm index (< 0)
}

// slot parks one scheduled event's pointers outside the event arrays.
// Vacant slots chain through next into Sim.free.
type slot struct {
	fn    func()
	timer *Timer // non-nil for Timer-owned (location-tracked) entries
	next  int32  // free-list link when vacant
}

// less orders events by (time, seq): the flag bits sit below the sequence
// number, so comparing packed keys preserves strict FIFO tie-breaking.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.key < b.key
}

// Sim is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; run independent simulations in separate Sim instances.
type Sim struct {
	now     units.Time
	seq     uint64
	seed    int64
	rng     *rand.Rand
	halted  bool
	daemons int // scheduled daemon events (they never keep Run alive)

	near eventHeap // open-window Timer entries and events at or behind the sub-bucket cursor
	far  eventHeap // events beyond the wheel horizon

	// dl is the dispatch list: the last poured sub-bucket's events,
	// sorted at pour time and consumed by advancing dlHead. Most events
	// take this path — one append at schedule, one short sort amortized
	// over the sub-bucket, one cursor increment at dispatch — instead of
	// O(log n) heap sifts in and out. Only events that need location
	// tracking (Timer-owned) or that land at or behind the sub-bucket
	// cursor (they'd have to merge into a sorted prefix) go through the
	// near heap, and the dispatch loop interleaves the two by (at, seq)
	// comparison.
	dl     []event
	dlHead int

	// The open window's sub-buckets: sub[j] holds untracked events in
	// [base+j*subW, base+(j+1)*subW), subOcc marks the non-empty ones,
	// subCur is the last poured index (-1 while none has been), and
	// scount the events they hold. Each sub-bucket array is emptied, not
	// dropped, when poured, so it keeps its capacity window to window.
	sub    [subCount][]event
	subOcc [subWords]uint64
	subCur int32
	scount int

	buckets [][]event  // wheel: wheelSize fixed-width calendar buckets
	base    units.Time // start of the cursor bucket's window (bucketW-aligned)
	cur     int32      // cursor bucket index
	wcount  int        // events currently stored in wheel buckets

	slots []slot   // callback/timer storage for live events, by event id
	free  int32    // head of the vacant-slot free list; -1 when empty
	perms []func() // permanent callbacks interned by Register

	heapOnly bool // route everything through the near heap (reference mode)

	sched SchedStats // scheduler-internal traffic counters

	// Executed counts events dispatched since creation, for reporting.
	Executed uint64
}

// SchedStats counts scheduler-internal traffic: which tier each schedule
// call routed to, which structure each dispatch came from, and how much
// work cursor advancement did. Every count is a pure function of the
// event stream — no wall clock is involved — so two runs of the same seed
// produce identical stats. An event can be routed more than once: a far
// event that cascades into the wheel counts under Far at its original
// schedule and under Wheel (and Cascades) when the horizon reaches it.
type SchedStats struct {
	Near         uint64 // schedule calls routed to the near tier
	NearSub      uint64 // of Near, calls appended to an open-window sub-bucket (the rest went to the near heap)
	Wheel        uint64 // schedule calls routed into a wheel bucket
	Far          uint64 // schedule calls routed to the far overflow heap
	DispatchList uint64 // dispatches consumed from the sorted dispatch list
	DispatchHeap uint64 // dispatches popped from the near heap
	Cascades     uint64 // far-tier events re-routed as the horizon advanced
	Pours        uint64 // non-empty cursor buckets poured at advancement
	PouredEvents uint64 // events moved out of buckets by those pours
}

// Sched returns a copy of the scheduler-internal counters.
func (s *Sim) Sched() SchedStats { return s.sched }

// WheelOccupancy reports the number of events currently stored in wheel
// buckets — the calendar's live population, excluding the near tier and
// the far overflow heap (Pending covers all tiers).
func (s *Sim) WheelOccupancy() int { return s.wcount }

// New returns a simulator whose random streams derive from seed.
func New(seed int64) *Sim {
	s := &Sim{
		rng:     rand.New(rand.NewSource(seed)),
		seed:    seed,
		near:    eventHeap{tier: tierNear},
		far:     eventHeap{tier: tierFar},
		buckets: make([][]event, wheelSize),
		subCur:  -1,
		free:    -1,
	}
	s.near.s = s
	s.far.s = s
	return s
}

// NewHeapOnly returns a simulator that bypasses the timing wheel and runs
// every event through the plain binary heap — the pre-wheel scheduler.
// Dispatch order is identical to New by construction; this mode exists so
// equivalence tests can prove it (see TestSchedulerIsByteIdentical) and as
// a diagnostic fallback when bisecting scheduler suspicions.
func NewHeapOnly(seed int64) *Sim {
	s := New(seed)
	s.heapOnly = true
	return s
}

// Now returns the current simulated time.
func (s *Sim) Now() units.Time { return s.now }

// Rand returns the simulator's primary random stream.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Stream returns an independent deterministic random stream identified by id.
// Distinct ids yield decorrelated streams for the same simulator seed, so
// e.g. workload arrivals and switch sampling do not perturb each other.
func (s *Sim) Stream(id int64) *rand.Rand {
	const mix = int64(-0x61c8864680b583eb) // 0x9e3779b97f4a7c15 as int64
	return rand.New(rand.NewSource(s.seed ^ (id+1)*mix))
}

// alloc claims a slot for one scheduled event's callback (and owning
// timer, if any) and returns its id. Slots recycle through a free list, so
// steady-state scheduling never allocates.
//
//drill:hotpath
//drill:allocs 1 slot-table growth amortizes; steady state recycles ids through the free list
func (s *Sim) alloc(fn func(), t *Timer) int32 {
	if id := s.free; id >= 0 {
		sl := &s.slots[id]
		s.free = sl.next
		sl.fn, sl.timer = fn, t
		return id
	}
	s.slots = append(s.slots, slot{fn: fn, timer: t})
	return int32(len(s.slots) - 1)
}

// release vacates an event's slot, dropping its pointers so the GC can
// reclaim the captures.
//
//drill:hotpath
func (s *Sim) release(id int32) {
	sl := &s.slots[id]
	sl.fn, sl.timer = nil, nil
	sl.next = s.free
	s.free = id
}

// FnID names a callback interned with Register. Scheduling by id (AtID,
// AfterID, AtKeyID) skips the per-event slot round-trip; it is the right
// shape for long-lived fire-and-rearm callbacks like the fabric's per-port
// handlers, which are armed millions of times but created once.
type FnID int32

// Register interns a long-lived callback and returns its id. Registered
// callbacks are never released; transient callbacks should use the
// func()-taking schedule calls instead.
func (s *Sim) Register(fn func()) FnID {
	if fn == nil {
		panic("sim: Register requires a callback")
	}
	s.perms = append(s.perms, fn)
	return FnID(len(s.perms) - 1)
}

// ReserveKey allocates and returns the next local-class event key, exactly
// as scheduling a local event now would. It exists for batched event
// sources (the fabric's per-port visibility rings): a producer reserves
// the key at the instant the old one-event-per-packet design would have
// scheduled, hands it to AtKeyID when the entry reaches the head of its
// ring, and dispatch order stays byte-identical to the unbatched path.
//
//drill:hotpath
func (s *Sim) ReserveKey() uint64 {
	s.seq++
	return classLocal | s.seq<<keyShift
}

// ArrivalKey builds the event key for a wire arrival on directed port
// `port`, carrying the port's n-th departure. The key is a pure function
// of topology-invariant state — no scheduler counter — so a packet's
// arrival dispatches in the same slot whether the sending and receiving
// ports live in one scheduler or in two shards exchanging the packet at a
// window barrier. Port indexes fit 25 bits (33M directed channels) and
// per-port departures 34 bits (17G packets per port per run).
//
//drill:hotpath
func ArrivalKey(port, n uint64) uint64 {
	return classArrival | port<<(keyShift+34) | n<<keyShift
}

// At schedules fn to run at absolute time t as a shard-local event.
// Scheduling in the past panics: it would silently reorder causality.
//
//drill:hotpath
func (s *Sim) At(t units.Time, fn func()) {
	if t < s.now {
		panic("sim: event scheduled in the past")
	}
	s.seq++
	s.schedule(event{at: t, key: classLocal | s.seq<<keyShift, id: s.alloc(fn, nil)})
}

// AtID schedules the callback registered under id at absolute time t, with
// a fresh tie-break sequence number, exactly as At would.
//
//drill:hotpath
func (s *Sim) AtID(t units.Time, id FnID) {
	if t < s.now {
		panic("sim: event scheduled in the past")
	}
	s.seq++
	s.schedule(event{at: t, key: classLocal | s.seq<<keyShift, id: ^int32(id)})
}

// AfterID schedules the callback registered under id to run d from now.
//
//drill:hotpath
func (s *Sim) AfterID(d units.Time, id FnID) { s.AtID(s.now+d, id) }

// AtKey schedules fn at absolute time t under an event key previously
// allocated with ReserveKey (or built with ArrivalKey). It is the batched
// producers' arm operation: a ring that reserved its entries' keys at the
// instant the unbatched design would have scheduled them re-arms one
// reusable callback per firing, and the (t, key) pair lands every dispatch
// in exactly the slot the unbatched event stream gave it. Arming with a
// stale key is legitimate precisely because the ring preserved FIFO order;
// t must not be in the past.
//
//drill:hotpath
func (s *Sim) AtKey(t units.Time, key uint64, fn func()) {
	if t < s.now {
		panic("sim: event scheduled in the past")
	}
	s.schedule(event{at: t, key: key, id: s.alloc(fn, nil)})
}

// AtKeyID is AtKey over a callback registered with Register — the zero-
// alloc arm operation the fabric's per-port rings use.
//
//drill:hotpath
func (s *Sim) AtKeyID(t units.Time, key uint64, id FnID) {
	if t < s.now {
		panic("sim: event scheduled in the past")
	}
	s.schedule(event{at: t, key: key, id: ^int32(id)})
}

// After schedules fn to run d after the current time.
//
//drill:hotpath
func (s *Sim) After(d units.Time, fn func()) { s.At(s.now+d, fn) }

// AtGlobal schedules fn at absolute time t as a global-class event.
// Global events are the ones a sharded run executes at window barriers —
// workload arrivals, control-plane reconvergence, warmup/end markers —
// and they sort before every same-time local event, which is exactly when
// a barrier runs them. Sequential runs use the same class so the two
// engines dispatch in the same order.
func (s *Sim) AtGlobal(t units.Time, fn func()) {
	if t < s.now {
		panic("sim: event scheduled in the past")
	}
	s.seq++
	s.schedule(event{at: t, key: classGlobal | s.seq<<keyShift, id: s.alloc(fn, nil)})
}

// AfterGlobal schedules fn to run d from now as a global-class event.
func (s *Sim) AfterGlobal(d units.Time, fn func()) { s.AtGlobal(s.now+d, fn) }

// AfterDaemon schedules fn like After, but as a daemon event: Run treats a
// queue holding only daemon events as drained. Periodic samplers and
// decay tickers use this so they never keep a finished simulation alive.
// Daemon events are global-class: in a sharded run they execute at window
// barriers (the sampler reads every shard's ports, so every shard must be
// parked), and the class order makes the sequential engine dispatch them
// in the same pre-local slot a barrier gives them.
func (s *Sim) AfterDaemon(d units.Time, fn func()) {
	t := s.now + d
	if t < s.now {
		panic("sim: daemon event scheduled in the past")
	}
	s.seq++
	s.daemons++
	s.schedule(event{at: t, key: s.seq<<keyShift | keyDaemon, id: s.alloc(fn, nil)})
}

// AfterObserver schedules fn like AfterDaemon, but additionally excludes
// the dispatch from Executed accounting. Observer events exist for the
// metrics snapshotter and similar pure-read instrumentation: they may look
// at simulation state but never mutate it, so leaving them out of the
// event count is what keeps a metrics-enabled run byte-identical (same
// RunResult.Events, same fingerprints) to a metrics-free one.
func (s *Sim) AfterObserver(d units.Time, fn func()) {
	t := s.now + d
	if t < s.now {
		panic("sim: observer event scheduled in the past")
	}
	s.seq++
	s.daemons++
	s.schedule(event{at: t, key: s.seq<<keyShift | keyDaemon | keySilent, id: s.alloc(fn, nil)})
}

// schedule routes an event to its tier by distance from the wheel cursor.
//
//drill:hotpath
//drill:allocs 2 bucket and sub-bucket growth amortizes; both retain capacity across laps
func (s *Sim) schedule(ev event) {
	if s.heapOnly {
		s.sched.Near++
		s.near.push(ev)
		return
	}
	if ev.at < s.base+bucketW {
		// Inside the open window. An untracked event ahead of the
		// sub-bucket cursor joins its sub-bucket; everything else — Timer
		// entries, events in the sub-bucket being dispatched or one
		// already passed, and events behind the window (possible after
		// RunUntil advanced the clock into a quiet region) — goes to the
		// near heap, which enforces (at, seq) order directly.
		s.sched.Near++
		if off := ev.at - s.base; off >= 0 && ev.key&keyTracked == 0 {
			if j := int32(off >> subShift); j > s.subCur {
				s.sched.NearSub++
				s.sub[j] = append(s.sub[j], ev)
				s.subOcc[j>>6] |= 1 << (j & 63)
				s.scount++
				return
			}
		}
		s.near.push(ev)
		return
	}
	if ev.at < s.base+horizonW {
		s.sched.Wheel++
		b := int32(ev.at>>wheelShift) & wheelMask
		bk := append(s.buckets[b], ev)
		s.buckets[b] = bk
		if ev.key&keyTracked != 0 {
			t := s.slots[ev.id].timer
			t.tier = tierWheel
			t.bucket = b
			t.idx = int32(len(bk) - 1)
		}
		s.wcount++
		return
	}
	s.sched.Far++
	s.far.push(ev)
}

// Halt stops the run loop after the currently executing event returns. A
// halt only affects the run in progress: the next call to Run or RunUntil
// clears it and resumes dispatching from the current simulation state.
func (s *Sim) Halt() { s.halted = true }

// Halted reports whether Halt was called during the current/most recent run.
func (s *Sim) Halted() bool { return s.halted }

// Pending reports the number of scheduled events not yet dispatched.
// Cancelled timer events are removed from their tier eagerly, so they
// never count here.
func (s *Sim) Pending() int {
	return len(s.near.ev) + (len(s.dl) - s.dlHead) + s.scount + s.wcount + len(s.far.ev)
}

// eventCmp is less as a three-way comparison, for sorting long
// sub-buckets. Two events never compare equal: seqs are unique.
func eventCmp(a, b event) int {
	if a.at != b.at {
		if a.at < b.at {
			return -1
		}
		return 1
	}
	if a.key < b.key {
		return -1
	}
	if a.key > b.key {
		return 1
	}
	return 0
}

// ensureNear makes the near tier hold the globally earliest pending event,
// either at the head of the dispatch list or at the top of the near heap.
// It refills an exhausted list from the lowest occupied sub-bucket and,
// when the whole open window is empty, advances the wheel cursor —
// cascading overflow events in and dealing the reached bucket into the
// sub-buckets. It reports false when no events are pending anywhere.
// Advancing never skips an event: a bucket is emptied before the cursor
// moves past it, and the far tier is drained of everything the widened
// horizon covers at each step.
//
//drill:hotpath
func (s *Sim) ensureNear() bool {
	return s.dlHead < len(s.dl) || s.refill()
}

// refill is ensureNear's slow path, taken when the dispatch list is
// exhausted.
//
//drill:hotpath
//drill:allocs 1 sub-bucket appends retain capacity across windows
func (s *Sim) refill() bool {
	for s.dlHead == len(s.dl) {
		if s.scount > 0 {
			// Pour the lowest occupied sub-bucket only if no heap entry
			// precedes its start: a heap entry earlier than the
			// sub-bucket is the global minimum and must dispatch first,
			// which step does when the list is empty.
			j := s.firstSub()
			if len(s.near.ev) == 0 || s.near.ev[0].at >= s.base+units.Time(j)<<subShift {
				s.pourSub(j)
			}
			return true
		}
		if len(s.near.ev) > 0 {
			return true
		}
		if s.wcount == 0 {
			if len(s.far.ev) == 0 {
				return false
			}
			// Wheel idle: jump the cursor straight to the earliest far
			// event's bucket instead of stepping through empty buckets.
			at := s.far.ev[0].at
			s.base = at &^ (bucketW - 1)
			s.cur = int32(at>>wheelShift) & wheelMask
		} else {
			s.base += bucketW
			s.cur = (s.cur + 1) & wheelMask
		}
		s.subCur = -1
		// Cascade far-tier events the advanced horizon now covers.
		for len(s.far.ev) > 0 && s.far.ev[0].at < s.base+horizonW {
			s.sched.Cascades++
			s.schedule(s.far.popMin())
		}
		// Pour the cursor bucket: Timer-owned entries go through the near
		// heap (they keep index tracking so Reset/Stop can still find
		// them); everything else is dealt into its sub-bucket. The bucket
		// keeps its array for its next revolution.
		bk := s.buckets[s.cur]
		if len(bk) > 0 {
			s.sched.Pours++
			s.sched.PouredEvents += uint64(len(bk))
			s.wcount -= len(bk)
			for i := range bk {
				ev := bk[i]
				if ev.key&keyTracked != 0 {
					s.near.push(ev)
					continue
				}
				j := int32(ev.at-s.base) >> subShift
				s.sub[j] = append(s.sub[j], ev)
				s.subOcc[j>>6] |= 1 << (j & 63)
				s.scount++
			}
			s.buckets[s.cur] = bk[:0]
		}
	}
	return true
}

// firstSub returns the lowest occupied sub-bucket; scount must be > 0.
//
//drill:hotpath
func (s *Sim) firstSub() int32 {
	for w := (s.subCur + 1) >> 6; ; w++ {
		if m := s.subOcc[w]; m != 0 {
			return w<<6 + int32(bits.TrailingZeros64(m))
		}
	}
}

// pourSub sorts sub-bucket j into the (exhausted) dispatch list and moves
// the sub-bucket cursor to it. The events are copied into the list's one
// array, which stays hot in cache, and sorted there: a sub-bucket rarely
// holds more than a few events, so an insertion sort that skips in-order
// ones, with slices.SortFunc only past sortInline. Every sub-bucket keeps
// its own array, emptied, for the next window, so after warm-up neither
// side allocates. (Swapping the two arrays instead of copying measured
// slower on BenchmarkDenseWindow, and churns capacities between
// sub-buckets.)
//
//drill:hotpath
//drill:allocs 1 the dispatch list grows to the largest sub-bucket once, then retains capacity
func (s *Sim) pourSub(j int32) {
	b := s.sub[j]
	dl := append(s.dl[:0], b...)
	if len(dl) > sortInline {
		slices.SortFunc(dl, eventCmp)
	} else {
		for i := 1; i < len(dl); i++ {
			if !less(&dl[i], &dl[i-1]) {
				continue
			}
			ev := dl[i]
			k := i - 1
			for k > 0 && less(&ev, &dl[k-1]) {
				k--
			}
			copy(dl[k+1:i+1], dl[k:i])
			dl[k] = ev
		}
	}
	s.sub[j] = b[:0]
	s.dl, s.dlHead = dl, 0
	s.subOcc[j>>6] &^= 1 << (j & 63)
	s.scount -= len(b)
	s.subCur = j
}

// Run dispatches events in time order until only daemon events remain or
// Halt is called. Entering Run clears any previous halt, so a Sim halted
// mid-run can be resumed.
func (s *Sim) Run() {
	s.halted = false
	for s.Pending() > s.daemons && !s.halted {
		if !s.ensureNear() {
			return
		}
		s.step()
	}
}

// RunUntil dispatches events with time <= t, then advances the clock to t.
// Like Run, it clears any previous halt on entry.
func (s *Sim) RunUntil(t units.Time) {
	s.halted = false
	for !s.halted && s.ensureNear() && s.peekAt() <= t {
		s.step()
	}
	if !s.halted && s.now < t {
		s.now = t
	}
}

// RunBefore dispatches events with time strictly less than t, then
// advances the clock to t. It is the shard window primitive: a shard runs
// everything inside the window [now, t) and parks exactly at the barrier,
// leaving events at t itself for the window that opens there (barriers run
// global events at t first). Like Run, it clears any previous halt.
func (s *Sim) RunBefore(t units.Time) {
	s.halted = false
	for !s.halted && s.ensureNear() && s.peekAt() < t {
		s.step()
	}
	if !s.halted && s.now < t {
		s.now = t
	}
}

// NextAt reports the timestamp of the earliest pending event, and whether
// any event is pending at all. The window synchronizer uses it to size the
// next window: min over shards of NextAt plus the lookahead bound is the
// earliest instant any cross-shard effect can land.
func (s *Sim) NextAt() (units.Time, bool) {
	if !s.ensureNear() {
		return 0, false
	}
	return s.peekAt(), true
}

// AdvanceTo moves the clock forward to t without dispatching anything. It
// is only correct when no pending event lies before t — the window
// synchronizer uses it to park idle shards at a barrier without paying a
// goroutine dispatch. Moving backwards is a no-op.
func (s *Sim) AdvanceTo(t units.Time) {
	if t > s.now {
		s.now = t
	}
}

// peekAt returns the earliest pending event time; ensureNear must have
// returned true.
//
//drill:hotpath
func (s *Sim) peekAt() units.Time {
	if s.dlHead < len(s.dl) {
		if len(s.near.ev) > 0 && less(&s.near.ev[0], &s.dl[s.dlHead]) {
			return s.near.ev[0].at
		}
		return s.dl[s.dlHead].at
	}
	return s.near.ev[0].at
}

//drill:hotpath
func (s *Sim) step() {
	var ev event
	if s.dlHead < len(s.dl) {
		if len(s.near.ev) > 0 && less(&s.near.ev[0], &s.dl[s.dlHead]) {
			ev = s.near.popMin()
			s.sched.DispatchHeap++
		} else {
			ev = s.dl[s.dlHead]
			s.dlHead++
			s.sched.DispatchList++
		}
	} else {
		ev = s.near.popMin()
		s.sched.DispatchHeap++
	}
	if ev.key&keyDaemon != 0 {
		s.daemons--
	}
	s.now = ev.at
	if ev.key&keySilent == 0 {
		s.Executed++
	}
	var fn func()
	if ev.id < 0 {
		fn = s.perms[^ev.id]
	} else {
		sl := &s.slots[ev.id]
		fn = sl.fn
		if ev.key&keyTracked != 0 {
			// Disarm before running: the callback may immediately Reset.
			sl.timer.tier = tierNone
		}
		s.release(ev.id)
	}
	fn()
}

// wheelRemove deletes slot i of bucket b (a cancelled timer entry) in O(1)
// by swap-removal; bucket-internal order is irrelevant because a bucket's
// events are re-ordered (near heap or sorted sub-buckets) before dispatch.
//
//drill:hotpath
func (s *Sim) wheelRemove(b, i int32) {
	bk := s.buckets[b]
	if ev := &bk[i]; ev.id >= 0 {
		if ev.key&keyTracked != 0 {
			s.slots[ev.id].timer.tier = tierNone
		}
		s.release(ev.id)
	}
	last := int32(len(bk) - 1)
	if i != last {
		bk[i] = bk[last]
		if ev := &bk[i]; ev.key&keyTracked != 0 {
			s.slots[ev.id].timer.idx = i
		}
	}
	s.buckets[b] = bk[:last]
	s.wcount--
}

// eventHeap is a hand-rolled binary min-heap keyed on (at, seq).
// container/heap's interface indirection costs measurably at the tens of
// millions of events a single experiment point dispatches. Entries owned
// by a Timer are flagged in their key; their owning timer (found through
// the slot table) has its tier and index kept current through every move,
// so Reset/Stop relocate or delete the live entry instead of abandoning
// tombstones. Because events are pointer-free, every sift swap is a plain
// 24-byte copy with no write barrier.
type eventHeap struct {
	ev   []event
	s    *Sim
	tier int8
}

// setIdx records i as the location of the timer owning ev[i], if any.
//
//drill:hotpath
func (h *eventHeap) setIdx(i int) {
	if ev := &h.ev[i]; ev.key&keyTracked != 0 {
		t := h.s.slots[ev.id].timer
		t.tier = h.tier
		t.idx = int32(i)
	}
}

//drill:hotpath
//drill:allocs 1 heap growth amortizes; capacity is retained across pops
func (h *eventHeap) push(ev event) {
	h.ev = append(h.ev, ev)
	i := len(h.ev) - 1
	h.setIdx(i)
	h.siftUp(i)
}

// The heap is 4-ary rather than binary: half the levels per sift, and the
// four children of a node are contiguous (one or two cache lines), which
// profiles measurably faster than a binary heap at this package's event
// rates. Arity changes the tree shape only — extraction order is still
// strictly (at, seq), which is all determinism needs.

//drill:hotpath
func (h *eventHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 4
		if !less(&h.ev[i], &h.ev[parent]) {
			break
		}
		h.ev[i], h.ev[parent] = h.ev[parent], h.ev[i]
		h.setIdx(i)
		h.setIdx(parent)
		i = parent
	}
}

//drill:hotpath
func (h *eventHeap) siftDown(i int) {
	n := len(h.ev)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		least := i
		end := c + 4
		if end > n {
			end = n
		}
		for ; c < end; c++ {
			if less(&h.ev[c], &h.ev[least]) {
				least = c
			}
		}
		if least == i {
			break
		}
		h.ev[i], h.ev[least] = h.ev[least], h.ev[i]
		h.setIdx(i)
		h.setIdx(least)
		i = least
	}
}

//drill:hotpath
func (h *eventHeap) popMin() event {
	top := h.ev[0]
	last := len(h.ev) - 1
	h.ev[0] = h.ev[last]
	h.ev = h.ev[:last]
	if last > 0 {
		h.setIdx(0)
		h.siftDown(0)
	}
	return top
}

// removeAt deletes ev[i] (a cancelled timer entry) in O(log n).
//
//drill:hotpath
func (h *eventHeap) removeAt(i int) {
	if ev := &h.ev[i]; ev.id >= 0 {
		if ev.key&keyTracked != 0 {
			h.s.slots[ev.id].timer.tier = tierNone
		}
		h.s.release(ev.id)
	}
	last := len(h.ev) - 1
	if i != last {
		h.ev[i] = h.ev[last]
		h.setIdx(i)
	}
	h.ev = h.ev[:last]
	if i != last {
		h.siftUp(i)
		h.siftDown(i)
	}
}

// Timer is a cancellable, re-armable scheduled callback. Unlike At/After —
// which are fire-and-forget — a Timer owns at most one live scheduler
// entry: Reset moves that entry (or creates it) and Stop deletes it, in
// O(1) on the wheel tier and O(log n) on the heap tiers. Re-armed timers
// therefore never accumulate dead events in the scheduler, which is what
// keeps per-flow retransmission timers O(1) in scheduler space no matter
// how many times ACKs re-arm them.
//
// A Timer belongs to the single-threaded Sim that created it; the zero
// value is not usable.
type Timer struct {
	s      *Sim
	fn     func()
	tier   int8  // which tier holds the live entry; tierNone when unarmed
	bucket int32 // wheel bucket (tierWheel only)
	idx    int32 // heap index or bucket slot
}

// NewTimer returns an unarmed timer that runs fn when it fires. The one
// closure allocated here is reused across every Reset for the timer's
// lifetime.
func (s *Sim) NewTimer(fn func()) *Timer {
	if fn == nil {
		panic("sim: NewTimer requires a callback")
	}
	return &Timer{s: s, fn: fn, tier: tierNone, idx: -1}
}

// Armed reports whether the timer is scheduled to fire.
func (t *Timer) Armed() bool { return t.tier != tierNone }

// detach removes the timer's live entry from whichever tier holds it.
//
//drill:hotpath
func (t *Timer) detach() {
	switch t.tier {
	case tierNear:
		t.s.near.removeAt(int(t.idx))
	case tierFar:
		t.s.far.removeAt(int(t.idx))
	case tierWheel:
		t.s.wheelRemove(t.bucket, t.idx)
	}
}

// Reset (re)schedules the timer to fire d from now, cancelling any earlier
// deadline. Like After, the new deadline takes a fresh FIFO tie-break
// sequence number, so a reset timer fires after events already scheduled
// at the same instant.
//
//drill:hotpath
func (t *Timer) Reset(d units.Time) {
	if d < 0 {
		panic("sim: timer reset into the past")
	}
	s := t.s
	if t.tier != tierNone {
		t.detach()
	}
	s.seq++
	s.schedule(event{at: s.now + d, key: classLocal | s.seq<<keyShift | keyTracked, id: s.alloc(t.fn, t)})
}

// ResetAt (re)schedules the timer to fire at absolute time at, under an
// event key previously allocated with ReserveKey or built with ArrivalKey.
// It is the batched producers' arm operation: the (at, key) pair decides
// dispatch order, so an entry that waited in a per-port ring fires in
// exactly the slot the old schedule-at-enqueue design gave it. Arming with
// a stale key is legitimate precisely because the ring preserved FIFO
// order; at must not be in the past.
//
//drill:hotpath
func (t *Timer) ResetAt(at units.Time, key uint64) {
	s := t.s
	if at < s.now {
		panic("sim: timer reset into the past")
	}
	if t.tier != tierNone {
		t.detach()
	}
	s.schedule(event{at: at, key: key | keyTracked, id: s.alloc(t.fn, t)})
}

// Stop cancels the pending firing, if any, removing its scheduler entry
// eagerly. It reports whether a firing was actually cancelled. Stopping an
// unarmed timer is a no-op, so Stop is safe to call unconditionally.
//
//drill:hotpath
func (t *Timer) Stop() bool {
	if t.tier == tierNone {
		return false
	}
	t.detach()
	t.tier = tierNone
	return true
}

// Ticker invokes fn every interval until the simulation drains or stop is
// requested. It is used by periodic samplers (queue-length STDV, DRE decay).
type Ticker struct {
	s        *Sim
	interval units.Time
	stop     bool
	silent   bool
	fn       func(now units.Time)
}

// NewTicker starts a periodic callback with the given interval. The first
// tick fires one interval from now.
func NewTicker(s *Sim, interval units.Time, fn func(now units.Time)) *Ticker {
	if interval <= 0 {
		panic("sim: ticker interval must be positive")
	}
	t := &Ticker{s: s, interval: interval, fn: fn}
	s.AfterDaemon(interval, t.tick)
	return t
}

// NewObserverTicker is NewTicker over observer events: ticks never keep the
// simulation alive and never count toward Executed. fn must only read
// simulation state (the observe-never-steer contract); a callback that
// mutated data-plane state or drew from a random stream would break the
// byte-identical guarantee this event class exists to preserve.
func NewObserverTicker(s *Sim, interval units.Time, fn func(now units.Time)) *Ticker {
	if interval <= 0 {
		panic("sim: ticker interval must be positive")
	}
	t := &Ticker{s: s, interval: interval, fn: fn, silent: true}
	s.AfterObserver(interval, t.tick)
	return t
}

// Stop cancels future ticks.
func (t *Ticker) Stop() { t.stop = true }

func (t *Ticker) tick() {
	if t.stop {
		return
	}
	t.fn(t.s.Now())
	if t.silent {
		t.s.AfterObserver(t.interval, t.tick)
	} else {
		t.s.AfterDaemon(t.interval, t.tick)
	}
}
