package experiments

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"drill/internal/fabric"
	"drill/internal/obs"
	"drill/internal/sim"
	"drill/internal/topo"
	"drill/internal/transport"
	"drill/internal/units"
)

// This file is the perf-trajectory harness: cmd/drillbench runs the
// canonical cells below and writes a BENCH_*.json snapshot (events/sec,
// ns/event, allocs/event, peak heap, packet-pool traffic). The committed
// BENCH_baseline.json is the first point of that trajectory; future PRs
// that touch the packet path regenerate it and diff.

// BenchSchemaVersion identifies the BENCH_*.json layout.
const BenchSchemaVersion = "drill-bench/v1"

// BenchCell is one canonical benchmark configuration.
type BenchCell struct {
	Name string
	Cfg  RunCfg
}

// BenchCells returns the canonical cells: the fig6a fabric under the two
// schemes whose data-plane work brackets the suite (ECMP's single hash
// lookup, DRILL's sampled-queue comparisons), at a moderate and a high
// load. Small enough that one pass finishes in seconds, big enough that
// each cell dispatches millions of events.
func BenchCells(seed int64) []BenchCell {
	mk := func(name, scheme string, load float64) BenchCell {
		sc, ok := SchemeByName(scheme)
		if !ok {
			panic("experiments: unknown bench scheme " + scheme)
		}
		return BenchCell{Name: name, Cfg: RunCfg{
			Topo: fig6Topo(0), Scheme: sc, Seed: seed, Load: load,
			Warmup:  200 * units.Microsecond,
			Measure: 2 * units.Millisecond,
		}}
	}
	return []BenchCell{
		mk("ecmp-load0.5", "ECMP", 0.5),
		mk("drill-load0.5", "DRILL", 0.5),
		mk("drill-load0.8", "DRILL", 0.8),
	}
}

// BenchShardCells returns the sharded-engine cells: a k=16 fat-tree
// (1024 hosts, 320 switches) under DRILL at 50% load, run sequentially and
// at 4 and 8 shards. The sequential/sharded pairs share a seed, so their
// event counts must match exactly (the conformance suite proves the full
// results do); the events/s ratio between them is the aggregate speedup
// the shard rows of BENCH_shard.json track. On a single-core runner the
// ratio degenerates to the window protocol's overhead (≈1.0×); on the
// multi-core machines CI uses it is the parallel scaling number.
func BenchShardCells(seed int64) []BenchCell {
	sc, ok := SchemeByName("DRILL")
	if !ok {
		panic("experiments: DRILL scheme missing")
	}
	mk := func(name string, shards int) BenchCell {
		return BenchCell{Name: name, Cfg: RunCfg{
			Topo: func() *topo.Topology {
				return topo.FatTree(topo.FatTreeConfig{K: 16, LinkRate: 10 * units.Gbps})
			},
			Scheme: sc, Seed: seed, Load: 0.5, Shards: shards,
			Warmup:  100 * units.Microsecond,
			Measure: 300 * units.Microsecond,
		}}
	}
	return []BenchCell{
		mk("fattree16-seq", 0),
		mk("fattree16-shards4", 4),
		mk("fattree16-shards8", 8),
	}
}

// BenchCellResult is one cell's measurements.
type BenchCellResult struct {
	Name   string  `json:"name"`
	Scheme string  `json:"scheme"`
	Load   float64 `json:"load"`
	Shards int     `json:"shards,omitempty"` // 0 = sequential engine

	Events       uint64  `json:"events"`
	WallNs       int64   `json:"wall_ns"`
	NsPerEvent   float64 `json:"ns_per_event"`
	EventsPerSec float64 `json:"events_per_sec"`
	Flows        int64   `json:"flows"`

	Mallocs        uint64  `json:"mallocs"`
	AllocBytes     uint64  `json:"alloc_bytes"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	BytesPerEvent  float64 `json:"bytes_per_event"`
	PeakHeapBytes  uint64  `json:"peak_heap_bytes"`

	// PacketGets is pool traffic; PacketAllocs the fresh allocations among
	// it. Gets - Allocs is the allocation volume recycling avoided.
	PacketGets   int64 `json:"packet_gets"`
	PacketAllocs int64 `json:"packet_allocs"`

	// Engine observatory summary, sharded cells only: windows run, wall
	// time parked at barriers as a share of total shard wall time, and the
	// max/mean per-shard event imbalance. Informational — benchdiff
	// compares only its named metrics, so snapshots without these fields
	// stay diffable.
	Windows         uint64  `json:"windows,omitempty"`
	BarrierStallPct float64 `json:"barrier_stall_pct,omitempty"`
	ShardImbalance  float64 `json:"shard_imbalance,omitempty"`
}

// MicroAllocs are testing.AllocsPerRun measurements of the three hot paths
// the pool/timer work targets. Each is allocations per operation at steady
// state; the alloc-ceiling tests pin the first two at zero.
type MicroAllocs struct {
	// TimerResetStop: one RTO re-arm + disarm on a warm sim heap.
	TimerResetStop float64 `json:"timer_reset_stop"`
	// PoolGetPut: one packet recycle round trip (Get, fill nothing, Put).
	PoolGetPut float64 `json:"pool_get_put"`
	// SendDeliver: one pool-allocated packet pushed host→leaf→host through
	// a warm two-host fabric, including every event closure the data plane
	// schedules for it (enqueue visibility, txDone, arrive). This is the
	// whole per-packet event cost, the number future PRs should shrink.
	SendDeliver float64 `json:"send_deliver"`
	// ShardWindow: one cross-shard packet delivered through a warm 2-shard
	// fabric via the window protocol — ~25 barriers (worker handoffs,
	// outbox→ring exchange, callback re-arms) per operation. Pinned at
	// zero by the shard alloc-ceiling test: the barrier path reuses its
	// outboxes, rings, and interned events at steady state.
	ShardWindow float64 `json:"shard_window"`
	// SchedDense: one 1.024µs window of dispatch on a warm scheduler
	// crowded with 1024 self-re-arming sources at a fabric hop's offsets
	// (60ns visibility, 200ns wire, 1.23µs serialization) — ~2000 events
	// through the open window's sub-buckets per operation. Pinned at zero
	// by the scheduler's alloc-ceiling test: the sub-bucket arrays and the
	// dispatch list keep their capacity from window to window.
	SchedDense float64 `json:"sched_dense"`
}

// BenchReport is the BENCH_*.json document.
type BenchReport struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// NumCPU is runtime.NumCPU() and GoMaxProcs runtime.GOMAXPROCS(0).
	// Both are recorded because CI containers routinely pin GOMAXPROCS
	// below the host's core count (cgroup quota), and either one alone
	// misstates the machine the wall-clock rates came from. benchdiff
	// warns — never fails — when they differ between snapshots.
	NumCPU     int   `json:"num_cpu"`
	GoMaxProcs int   `json:"gomaxprocs"`
	Seed       int64 `json:"seed"`

	Cells []BenchCellResult `json:"cells"`
	Micro MicroAllocs       `json:"micro"`

	// Provenance self-describes the snapshot: which binary (git revision,
	// dirty flag) produced it, with one row per cell carrying the config
	// hash. Absent from snapshots older than the field.
	Provenance *obs.Manifest `json:"provenance,omitempty"`
}

// RunBenchCell executes one cell and measures it. The heap is settled with
// a forced GC before the run so malloc/byte deltas belong to the run
// alone; peak heap is sampled every 500µs of simulated time from inside
// the run.
func RunBenchCell(c BenchCell) BenchCellResult {
	cfg := c.Cfg
	var peak uint64
	cfg.Hook = func(reg *transport.Registry, until units.Time) {
		sim.NewTicker(reg.Sim, 500*units.Microsecond, func(units.Time) {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
		})
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	started := time.Now() //drill:allow simtime wall timing of the bench cell, never a sim timestamp
	res := Run(cfg)
	wall := time.Since(started) //drill:allow simtime wall timing of the bench cell, never a sim timestamp
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > peak {
		peak = after.HeapAlloc
	}

	out := BenchCellResult{
		Name:   c.Name,
		Scheme: cfg.Scheme.Name,
		Load:   cfg.Load,
		Shards: cfg.Shards,

		Events: res.Events,
		WallNs: wall.Nanoseconds(),
		Flows:  res.Flows,

		Mallocs:       after.Mallocs - before.Mallocs,
		AllocBytes:    after.TotalAlloc - before.TotalAlloc,
		PeakHeapBytes: peak,

		PacketGets:   res.PacketGets,
		PacketAllocs: res.PacketAllocs,
	}
	if res.Events > 0 {
		out.NsPerEvent = float64(wall.Nanoseconds()) / float64(res.Events)
		out.AllocsPerEvent = float64(out.Mallocs) / float64(res.Events)
		out.BytesPerEvent = float64(out.AllocBytes) / float64(res.Events)
	}
	if secs := wall.Seconds(); secs > 0 {
		out.EventsPerSec = float64(res.Events) / secs
	}
	if rep := res.EngineRep; rep != nil && len(rep.Shards) > 0 {
		out.Windows = rep.WindowCount
		out.BarrierStallPct = rep.StallPct()
		out.ShardImbalance = rep.Imbalance()
	}
	return out
}

// RunBench executes every canonical cell plus the micro measurements.
func RunBench(seed int64, progress func(format string, args ...any)) BenchReport {
	rep := BenchReport{
		Schema:     BenchSchemaVersion,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed:       seed,
	}
	rep.Provenance = obs.NewManifest("drillbench", seed)
	for _, c := range append(BenchCells(seed), BenchShardCells(seed)...) {
		r := RunBenchCell(c)
		if progress != nil {
			suffix := ""
			if r.Windows > 0 {
				suffix = fmt.Sprintf("  windows %d  stall %.1f%%  imb %.2f",
					r.Windows, r.BarrierStallPct, r.ShardImbalance)
			}
			progress("%-14s %8.3g ev/s  %6.1f ns/ev  %6.3f allocs/ev  peak %5.1f MB%s",
				r.Name, r.EventsPerSec, r.NsPerEvent, r.AllocsPerEvent,
				float64(r.PeakHeapBytes)/1e6, suffix)
		}
		rep.Cells = append(rep.Cells, r)
		rep.Provenance.Add(obs.CellSummary{
			Cell: r.Name, Scheme: r.Scheme, Seed: seed, Load: r.Load,
			ConfigHash: obs.ConfigHash(provConfig(c.Cfg)),
			Events:     r.Events, Flows: r.Flows, WallNs: r.WallNs,
			Windows: r.Windows, Imbalance: r.ShardImbalance,
		})
	}
	rep.Micro = BenchMicroAllocs()
	if progress != nil {
		progress("micro: timer reset+stop %.2f, pool get+put %.2f, send→deliver %.2f, dense window %.2f allocs/op",
			rep.Micro.TimerResetStop, rep.Micro.PoolGetPut, rep.Micro.SendDeliver, rep.Micro.SchedDense)
	}
	return rep
}

// BenchMicroAllocs measures the per-operation allocation cost of the
// timer re-arm, packet recycle, send→deliver, shard window, and dense
// open-window scheduling paths.
func BenchMicroAllocs() MicroAllocs {
	var m MicroAllocs

	// Timer re-arm on a warm heap: Reset moves the live entry in place.
	{
		s := sim.New(1)
		tm := s.NewTimer(func() {})
		tm.Reset(1 * units.Nanosecond)
		s.Run()
		m.TimerResetStop = testing.AllocsPerRun(1000, func() {
			tm.Reset(5 * units.Nanosecond)
			tm.Stop()
		})
	}

	// Packet recycle round trip on a warm free list.
	{
		var pool fabric.PacketPool
		pool.Put(pool.Get())
		m.PoolGetPut = testing.AllocsPerRun(1000, func() {
			pool.Put(pool.Get())
		})
	}

	// One pool packet host→leaf→host through a warm fabric, drained.
	{
		sc, _ := SchemeByName("ECMP")
		tp := topo.LeafSpine(topo.LeafSpineConfig{
			Spines: 1, Leaves: 1, HostsPerLeaf: 2,
			CoreRate: 10 * units.Gbps, HostRate: 10 * units.Gbps,
		})
		s := sim.New(1)
		net := fabric.New(s, tp, fabric.Config{Balancer: sc.New()})
		src, dst := net.Host(tp.Hosts[0]), tp.Hosts[1]
		send := func() {
			pkt := src.AllocPacket()
			pkt.FlowID = 1
			pkt.Hash = 7
			pkt.Dst = dst
			pkt.Size = 1518 * units.Byte
			src.Send(pkt)
			s.Run()
		}
		send() // warm queues, heap, and pool
		m.SendDeliver = testing.AllocsPerRun(500, send)
	}

	// One window-protocol round trip across a warm 2-shard fabric. Warm-up
	// must cover one full timing-wheel revolution (~4.2ms of sim time, ~850
	// ops at 5µs each) so every calendar bucket of every shard's wheel has
	// grown its high-water array; only then does a remaining allocation
	// belong to the barrier path rather than to wheel warm-up.
	{
		op, done := shardWindowOp()
		for i := 0; i < 5000; i++ {
			op()
		}
		m.ShardWindow = testing.AllocsPerRun(500, op)
		done()
	}

	// One open window of dense dispatch. Warm-up covers two wheel
	// revolutions, so every calendar bucket and every sub-bucket array
	// has grown to its steady capacity before measuring.
	{
		s := sim.New(1)
		offsets := [...]units.Time{60 * units.Nanosecond, 200 * units.Nanosecond, 1230 * units.Nanosecond}
		for i := 0; i < 1024; i++ {
			k := i
			var id sim.FnID
			id = s.Register(func() {
				k++
				s.AfterID(offsets[k%len(offsets)], id)
			})
			s.AtID(units.Time(i)*units.Nanosecond, id)
		}
		s.RunUntil(9 * units.Millisecond)
		m.SchedDense = testing.AllocsPerRun(500, func() {
			s.RunUntil(s.Now() + units.Microsecond)
		})
	}
	return m
}

// shardWindowOp builds a minimal 2-shard fabric (two leaves with one host
// each, one spine) and returns an operation that sends one packet in each
// direction between the shards and runs the window protocol until both
// deliver — every op crosses the shard boundary twice and passes ~25
// barriers. Packets are sent pairwise so the domain pools exchange
// retired packets symmetrically and neither ever grows. The second return
// stops the shard workers.
func shardWindowOp() (op func(), done func()) {
	sc, _ := SchemeByName("ECMP")
	tp := topo.LeafSpine(topo.LeafSpineConfig{
		Spines: 1, Leaves: 2, HostsPerLeaf: 1,
		CoreRate: 10 * units.Gbps, HostRate: 10 * units.Gbps,
	})
	assign, nsh := tp.Partition(2)
	global := sim.New(1)
	shards := make([]*sim.Sim, nsh)
	for i := range shards {
		shards[i] = sim.New(1)
	}
	net := fabric.NewSharded(global, shards, assign, tp, fabric.Config{Balancer: sc.New()})
	group := &sim.ShardGroup{
		Global: global, Shards: shards,
		Lookahead: net.ShardLookahead(), Exchange: net.ExchangeShards,
	}
	group.Start()

	a, b := net.Host(tp.Hosts[0]), net.Host(tp.Hosts[1])
	send := func(src *fabric.Host, dst topo.NodeID) {
		pkt := src.AllocPacket()
		pkt.FlowID = 1
		pkt.Hash = 7
		pkt.Dst = dst
		pkt.Size = 1518 * units.Byte
		src.Send(pkt)
	}
	next := global.Now()
	op = func() {
		send(a, b.ID)
		send(b, a.ID)
		next += 5 * units.Microsecond
		group.RunUntil(next)
	}
	return op, group.Close
}
