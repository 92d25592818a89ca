package sim

import (
	"testing"

	"drill/internal/units"
)

// TestSchedStatsTierRouting pins the scheduler-internals counters against
// a hand-built schedule with one event per tier, plus a Timer in the open
// window: routing totals must match what was scheduled, the open-window
// split must send the untracked event to a sub-bucket and the Timer entry
// to the near heap, every event must be dispatched from exactly one of
// the two dispatch sources, and the far event must cascade inward as the
// wheel horizon advances past it.
func TestSchedStatsTierRouting(t *testing.T) {
	s := New(1)
	nop := func() {}
	s.At(10, nop)              // inside the cursor bucket window → near, sub-bucket
	s.NewTimer(nop).Reset(20)  // a Timer in the window → near, heap
	s.At(5<<wheelShift+3, nop) // within the wheel horizon → bucket
	s.At(horizonW+50, nop)     // beyond the horizon → far

	sc := s.Sched()
	if sc.Near != 2 || sc.Wheel != 1 || sc.Far != 1 {
		t.Fatalf("tier routing = near %d wheel %d far %d, want 2/1/1", sc.Near, sc.Wheel, sc.Far)
	}
	if sc.NearSub != 1 {
		t.Fatalf("open-window sub-bucket schedules = %d, want 1 (the Timer entry takes the heap)", sc.NearSub)
	}
	if s.WheelOccupancy() != 1 || s.Pending() != 4 {
		t.Fatalf("wheel occupancy = %d pending = %d, want 1/4", s.WheelOccupancy(), s.Pending())
	}

	s.Run()
	sc = s.Sched()
	if sc.DispatchList != 3 || sc.DispatchHeap != 1 {
		t.Errorf("dispatches list %d heap %d, want 3/1 (only the Timer entry pops the heap)", sc.DispatchList, sc.DispatchHeap)
	}
	if sc.Cascades != 1 {
		t.Errorf("cascades = %d, want 1 (the far event re-routed once)", sc.Cascades)
	}
	if sc.Pours == 0 || sc.PouredEvents == 0 {
		t.Errorf("pours = %d poured = %d, want both > 0 (the bucket event was poured)", sc.Pours, sc.PouredEvents)
	}
	if s.WheelOccupancy() != 0 || s.Pending() != 0 {
		t.Errorf("after drain: occupancy %d pending %d, want 0/0", s.WheelOccupancy(), s.Pending())
	}
}

// TestSchedStatsDeterministic runs the same randomized schedule twice and
// requires identical counters: SchedStats is a pure function of the event
// stream, fit for fingerprints and cross-engine comparison.
func TestSchedStatsDeterministic(t *testing.T) {
	build := func() SchedStats {
		s := New(7)
		rng := s.Stream(3)
		var tick func()
		tick = func() {
			if s.Now() < 5*horizonW {
				s.At(s.Now()+units.Time(1+rng.Int63n(int64(horizonW))), tick)
			}
		}
		s.At(1, tick)
		s.At(2, tick)
		s.Run()
		return s.Sched()
	}
	if a, b := build(), build(); a != b {
		t.Errorf("SchedStats differ across identical runs:\n%+v\n%+v", a, b)
	}
}

// TestWindowStatsQuantile pins the log2-bucket quantile bound: exact for
// the degenerate cases, an upper edge for the rest, monotone in q.
func TestWindowStatsQuantile(t *testing.T) {
	var w WindowStats
	if got := w.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %d, want 0", got)
	}
	w.record(0)
	w.record(1)
	w.record(1000)
	if w.Count != 3 || w.SumNs != 1001 {
		t.Fatalf("count %d sum %d, want 3/1001", w.Count, w.SumNs)
	}
	if got := w.Quantile(0); got != 0 {
		t.Errorf("p0 = %d, want 0 (exact: the zero-width window)", got)
	}
	if got := w.Quantile(0.5); got != 1 {
		t.Errorf("p50 = %d, want 1", got)
	}
	if got := w.Quantile(0.99); got != 1023 {
		t.Errorf("p99 = %d, want 1023 (upper edge of 1000's bucket)", got)
	}
	if w.Quantile(0.5) > w.Quantile(0.9) || w.Quantile(0.9) > w.Quantile(0.99) {
		t.Error("quantile bound is not monotone in q")
	}
}

// TestShardGroupTelemetry drives a real 2-shard group and checks the
// barrier-folded stat blocks: per-shard events match each shard
// scheduler's own count, window/barrier totals line up, critical-shard
// attribution stays within the barrier count — and every deterministic
// field reproduces exactly across runs (wall-clock busy/stall are the
// sanctioned exceptions).
func TestShardGroupTelemetry(t *testing.T) {
	run := func() (stats []ShardStat, win WindowStats, barriers uint64, executed []uint64) {
		g := &ShardGroup{Global: New(1), Lookahead: 64}
		for i := 0; i < 2; i++ {
			s := New(int64(10 + i))
			steps := 150 + 100*i // unequal load → nontrivial critical attribution
			var tick func()
			tick = func() {
				if steps--; steps > 0 {
					s.At(s.Now()+48, tick)
				}
			}
			s.At(units.Time(1+i), tick)
			g.Shards = append(g.Shards, s)
		}
		g.Exchange = func() {}
		g.Start()
		g.RunUntil(20000)
		g.Close()
		for _, s := range g.Shards {
			executed = append(executed, s.Executed)
		}
		return g.ShardStats(), g.WindowStats(), g.Barriers(), executed
	}

	stats, win, barriers, executed := run()
	if len(stats) != 2 {
		t.Fatalf("got %d stat blocks, want 2", len(stats))
	}
	var critical uint64
	for i, st := range stats {
		if st.Events != executed[i] {
			t.Errorf("shard %d: stat events %d, scheduler executed %d", i, st.Events, executed[i])
		}
		if st.Windows == 0 || st.Windows > barriers {
			t.Errorf("shard %d: windows %d outside (0, barriers=%d]", i, st.Windows, barriers)
		}
		critical += st.Critical
	}
	if critical == 0 || critical > barriers {
		t.Errorf("critical windows %d outside (0, barriers=%d]", critical, barriers)
	}
	if win.Count == 0 || win.SumNs == 0 {
		t.Errorf("window distribution empty: %+v", win)
	}
	if win.Quantile(0.5) > win.Quantile(0.99) {
		t.Error("window quantile bound not monotone")
	}

	stats2, win2, barriers2, _ := run()
	for i := range stats {
		a, b := stats[i], stats2[i]
		a.BusyNs, a.StallNs, a.winBusy = 0, 0, 0
		b.BusyNs, b.StallNs, b.winBusy = 0, 0, 0
		if a != b {
			t.Errorf("shard %d deterministic stats differ across runs:\n%+v\n%+v", i, a, b)
		}
	}
	if win != win2 || barriers != barriers2 {
		t.Errorf("window telemetry differs across runs: %d vs %d barriers", barriers, barriers2)
	}
}
