package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"drill/internal/units"
)

// The timing wheel must be a pure representation change: New and
// NewHeapOnly dispatch the same events in the same order with the same
// Pending counts, byte for byte. The tests here drive both schedulers
// through the same scripted operation sequences — spanning the open
// window's sub-buckets, the wheel horizon, the far overflow tier, timer
// churn, and mid-run clock advances — and diff the full dispatch
// transcripts.

// wheelOp is one scripted scheduler operation. Scripts are generated
// (property test) or decoded from fuzz input, then applied identically to
// a wheel Sim and a heap-only Sim.
type wheelOp struct {
	kind  uint8 // 0 After, 1 chained After, 2 AfterDaemon, 3 Reset, 4 Stop, 5 RunUntil
	delay units.Time
	tm    int // timer index for Reset/Stop
}

const wheelScriptTimers = 4

// applyScript runs ops on s and returns the dispatch transcript: one line
// per event in dispatch order, recording the label, the clock, and the
// pending count observed inside the callback, plus a trailer with the
// final clock and pending count after Run drains the queue.
func applyScript(s *Sim, ops []wheelOp) []string {
	var log []string
	rec := func(label int) {
		log = append(log, fmt.Sprintf("%d@%d:p%d", label, s.Now(), s.Pending()))
	}
	var tms [wheelScriptTimers]*Timer
	for i := range tms {
		i := i
		tms[i] = s.NewTimer(func() { rec(-1 - i) })
	}
	for i, op := range ops {
		label := i
		switch op.kind {
		case 0:
			s.After(op.delay, func() { rec(label) })
		case 1:
			// Scheduling from inside a callback lands in the already-open
			// window: a sub-bucket ahead of the cursor, or the near heap at
			// or behind it. A sub-bucket-scale parent gets a child a few
			// sub-buckets out, so parents and children interleave densely.
			child := (op.delay*7919 + 13) % (3 * bucketW)
			if op.delay < 8*subW {
				child %= 8 * subW
			}
			s.After(op.delay, func() {
				rec(label)
				s.After(child, func() { rec(label + 1_000_000) })
			})
		case 2:
			s.AfterDaemon(op.delay, func() { rec(label) })
		case 3:
			tms[op.tm%wheelScriptTimers].Reset(op.delay)
		case 4:
			tms[op.tm%wheelScriptTimers].Stop()
		case 5:
			s.RunUntil(s.Now() + op.delay)
			log = append(log, fmt.Sprintf("adv@%d:p%d", s.Now(), s.Pending()))
		}
	}
	s.Run()
	return append(log, fmt.Sprintf("end@%d:p%d", s.Now(), s.Pending()))
}

// diffScript applies ops to a wheel and a heap-only simulator and returns
// the first transcript divergence, or "" if they match exactly.
func diffScript(ops []wheelOp) string {
	w := applyScript(New(42), ops)
	h := applyScript(NewHeapOnly(42), ops)
	if len(w) != len(h) {
		return fmt.Sprintf("transcript lengths differ: wheel %d, heap %d", len(w), len(h))
	}
	for i := range w {
		if w[i] != h[i] {
			return fmt.Sprintf("entry %d: wheel %q, heap %q", i, w[i], h[i])
		}
	}
	return ""
}

// randScript generates an op sequence whose delays cover every tier
// boundary: same-instant ties (0), a few sub-buckets of the open window,
// the whole open window, the wheel horizon, and far-tier overflow. Delays
// are often quantized (to the sub-bucket width at sub-bucket scale,
// coarser beyond it) so distinct ops frequently collide on the same
// timestamp and exercise the FIFO tie-break.
func randScript(rng *rand.Rand, n int) []wheelOp {
	ranges := []struct{ span, quantum units.Time }{
		{0, 0},                  // same-instant ties
		{8 * subW, subW},        // sub-bucket ties and heap interleaving
		{bucketW, 256},          // inside the open window
		{16 * bucketW, 256},     // short wheel hop
		{horizonW, 256},         // anywhere on the wheel
		{3 * horizonW / 2, 256}, // beyond the horizon: far tier
	}
	ops := make([]wheelOp, n)
	for i := range ops {
		r := ranges[rng.Intn(len(ranges))]
		var d units.Time
		if r.span > 0 {
			d = units.Time(rng.Int63n(int64(r.span)))
			if rng.Intn(2) == 0 {
				d -= d % r.quantum // quantize to force timestamp collisions
			}
		}
		ops[i] = wheelOp{kind: uint8(rng.Intn(6)), delay: d, tm: rng.Intn(wheelScriptTimers)}
	}
	return ops
}

// TestWheelMatchesHeapReference is the equivalence property test: random
// schedule/Reset/Stop/advance sequences must dispatch identically — same
// order, same clocks, same Pending counts — on the wheel and the
// reference heap.
func TestWheelMatchesHeapReference(t *testing.T) {
	iters, n := 300, 120
	if testing.Short() {
		iters = 60
	}
	for seed := 0; seed < iters; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		ops := randScript(rng, n)
		if d := diffScript(ops); d != "" {
			t.Fatalf("seed %d: wheel diverged from heap reference: %s", seed, d)
		}
	}
}

// FuzzWheelVsHeap decodes arbitrary bytes into an op script and asserts
// wheel/heap transcript equality. Three bytes per op: kind, and a 16-bit
// delay seed stretched across the tier ranges by the kind byte.
func FuzzWheelVsHeap(f *testing.F) {
	f.Add([]byte{0, 1, 0, 5, 2, 0, 3, 255, 255})
	f.Add([]byte{1, 0, 4, 3, 12, 0, 5, 0, 64, 4, 0, 0})
	f.Add([]byte{2, 7, 7, 5, 255, 0, 0, 0, 0, 3, 3, 3})
	f.Add([]byte{4, 0, 9, 9, 0, 21, 19, 0, 5, 24, 0, 13, 4, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*512 {
			data = data[:3*512]
		}
		var ops []wheelOp
		for i := 0; i+2 < len(data); i += 3 {
			raw := units.Time(data[i+1])<<8 | units.Time(data[i+2])
			var d units.Time
			switch data[i] % 5 {
			case 0:
				d = raw % bucketW
			case 1:
				d = (raw * 16) % horizonW
			case 2:
				d = raw * units.Time(1) << 10 // up to ~4 horizons out
			case 3:
				d = (raw &^ 255) % (4 * bucketW) // tie-heavy
			case 4:
				d = (raw % (8 * subW)) &^ (subW - 1) // sub-bucket ties
			}
			ops = append(ops, wheelOp{kind: data[i] % 6, delay: d, tm: int(data[i+1]) % wheelScriptTimers})
		}
		if d := diffScript(ops); d != "" {
			t.Fatalf("wheel diverged from heap reference: %s", d)
		}
	})
}

// TestSubBucketYieldsToEarlierWork pins the open window's ordering
// rule. A Timer armed in the window sits in the near heap; an event
// scheduled from a callback into a later sub-bucket must still dispatch
// before the timer when it is earlier — a heap entry may only go first
// when it precedes the lowest occupied sub-bucket, and a sub-bucket event
// may only go first when it precedes the heap minimum.
func TestSubBucketYieldsToEarlierWork(t *testing.T) {
	for _, heapOnly := range []bool{false, true} {
		s := New(1)
		if heapOnly {
			s = NewHeapOnly(1)
		}
		var got []units.Time
		rec := func() { got = append(got, s.Now()) }
		tm := s.NewTimer(rec)
		tm.Reset(900)
		s.At(100, func() {
			rec()
			s.At(150, rec)
			s.At(100, rec) // behind the sub-bucket cursor: the near heap
		})
		s.Run()
		want := []units.Time{100, 100, 150, 900}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("heapOnly=%v: dispatch times %v, want %v", heapOnly, got, want)
		}
	}
	s := New(1)
	s.At(100, func() { s.At(150, func() {}) })
	s.Run()
	if sc := s.Sched(); sc.NearSub != 2 || sc.Near != 2 {
		t.Errorf("open-window routing near %d sub %d, want both 2", sc.Near, sc.NearSub)
	}
}

// denseSources arms n self-re-arming callbacks on s, each cycling
// through the per-hop offsets of a packet simulation: a 60ns visibility
// update and a 200ns wire arrival (both inside the open window) and a
// 1.23µs serialization (the next wheel bucket). It returns a pointer to
// the dispatch count; sources stop re-arming once it reaches limit.
func denseSources(s *Sim, n, limit int) *int {
	offsets := [...]units.Time{60, 200, 1230}
	fired := new(int)
	for i := 0; i < n; i++ {
		k := i
		var id FnID
		id = s.Register(func() {
			if *fired++; *fired < limit {
				k++
				s.AfterID(offsets[k%len(offsets)], id)
			}
		})
		s.AtID(units.Time(i), id)
	}
	return fired
}

// BenchmarkDenseWindow measures dispatch through a crowded open window:
// 1024 sources whose re-arms land mostly in the sub-buckets, the load
// shape of a fabric hop. One op is one dispatched event.
func BenchmarkDenseWindow(b *testing.B) {
	s := New(1)
	denseSources(s, 1024, b.N+1024)
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
	b.StopTimer()
	if sc := s.Sched(); sc.DispatchList < sc.DispatchHeap {
		b.Fatalf("dispatch list %d < heap %d: the window is not using its sub-buckets", sc.DispatchList, sc.DispatchHeap)
	}
}

// TestWheelScheduleZeroAllocs pins the scheduler's steady-state
// allocation count at zero: events are pointer-free PODs, callbacks park
// in recycled slots, and the bucket, sub-bucket and dispatch-list arrays
// retain their capacity — so once the arrays are warm, schedule/dispatch/cancel cycles on every tier must not
// allocate at all.
func TestWheelScheduleZeroAllocs(t *testing.T) {
	s := New(1)
	n := 0
	fn := func() { n++ }
	// Warm every array: buckets, dispatch list, both heaps, the slot table.
	for i := 0; i < 20000; i++ {
		s.After(units.Time(i%4000), fn)
	}
	tm := s.NewTimer(fn)
	tm.Reset(2 * horizonW)
	s.Run()
	tm.Stop()

	if a := testing.AllocsPerRun(2000, func() {
		s.After(100, fn)        // near tier
		s.After(16*bucketW, fn) // wheel tier
		s.After(2*horizonW, fn) // far tier
		s.RunUntil(s.Now() + 3*horizonW)
	}); a != 0 {
		t.Fatalf("schedule/dispatch allocates %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(2000, func() {
		tm.Reset(8 * bucketW)  // wheel: O(1) insert
		tm.Reset(200)          // near heap relocate
		tm.Reset(2 * horizonW) // far heap relocate
		tm.Stop()
	}); a != 0 {
		t.Fatalf("timer reset/stop allocates %v allocs/op, want 0", a)
	}
	id := s.Register(fn)
	if a := testing.AllocsPerRun(2000, func() {
		s.AtKeyID(s.Now()+bucketW, s.ReserveKey(), id)
		s.RunUntil(s.Now() + 2*bucketW)
	}); a != 0 {
		t.Fatalf("AtKeyID arm/dispatch allocates %v allocs/op, want 0", a)
	}

	// Steady-state open-window scheduling: once the sub-bucket arrays
	// have filled through many windows at this density (and every wheel
	// bucket has seen a revolution), appending to a sub-bucket and pouring
	// it into the dispatch list must not allocate.
	d := New(1)
	denseSources(d, 256, 1<<62)
	d.RunUntil(2 * horizonW)
	before := d.Sched().NearSub
	if a := testing.AllocsPerRun(2000, func() {
		d.RunUntil(d.Now() + bucketW)
	}); a != 0 {
		t.Fatalf("dense open-window scheduling allocates %v allocs/op, want 0", a)
	}
	if d.Sched().NearSub == before {
		t.Fatal("dense sources never reached a sub-bucket")
	}
}
