package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"drill/internal/metrics"
)

// layerMetrics fills m with the per-layer metrics: timings are medians
// over the traced reps, simulated counts come from the first traced rep
// (every rep's digest already matched), and trace.overhead_frac compares
// the traced reps' wall time with the untraced reps' in the same process.
func layerMetrics(m map[string]metric, reps []rep) {
	var traced []rep
	var wallT, wallU []float64
	for _, r := range reps {
		if r.l != nil {
			traced = append(traced, r)
			wallT = append(wallT, r.wall.Seconds())
		} else {
			wallU = append(wallU, r.wall.Seconds())
		}
	}
	if len(traced) == 0 {
		return
	}
	perRep := func(f func(r rep) float64) float64 {
		var v []float64
		for _, r := range traced {
			v = append(v, f(r))
		}
		return median(v)
	}
	first := traced[0]
	l, o := first.l, first.out
	pkts := float64(o.delivered)
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	set("topo.build_ms", "ms", perRep(func(r rep) float64 { return durMs(r.l.topoBuild) }))
	set("topo.routes_ms", "ms", perRep(func(r rep) float64 { return durMs(r.l.routes) }))
	set("topo.paths", "count", float64(l.paths))

	set("quiver.build_ms", "ms", perRep(func(r rep) float64 { return durMs(r.l.quiverBuild) }))
	set("quiver.components", "count", float64(l.components))

	set("lb.table_builds", "count", float64(len(l.tables)))
	set("lb.tables_ms.p50", "ms", perRep(func(r rep) float64 { return durMs(medianDur(r.l.tables)) }))
	set("lb.tables_ms.max", "ms", perRep(func(r rep) float64 { return durMs(maxDur(r.l.tables)) }))
	set("lb.choose_calls", "count", float64(l.chooseCalls))
	set("lb.choose_per_pkt", "count/pkt", float64(l.chooseCalls)/pkts)
	set("lb.choose_ns", "ns", perRep(func(r rep) float64 {
		return float64(r.l.chooseTime) / float64(max(r.l.chooseTimed, 1))
	}))

	set("fabric.new_ms", "ms", perRep(func(r rep) float64 { return durMs(r.l.fabricNew) }))
	set("fabric.setup_mallocs", "count", float64(l.setupMallocs))
	set("fabric.setup_mb", "MB", float64(l.setupBytes)/1e6)
	set("fabric.epochs", "count", float64(o.epochs))
	var drops int64
	for _, d := range o.drops {
		drops += d
	}
	set("fabric.drops", "count", float64(drops))
	set("fabric.pool_reuse_frac", "frac", float64(l.poolGets-l.poolNews)/float64(max(l.poolGets, 1)))
	set("fabric.run_allocs_per_pkt", "count/pkt", perRep(func(r rep) float64 { return float64(r.l.runMallocs) / float64(r.out.delivered) }))
	set("fabric.run_bytes_per_pkt", "B/pkt", perRep(func(r rep) float64 { return float64(r.l.runBytes) / float64(r.out.delivered) }))
	for c := range l.hops.QueueingNs {
		set(fmt.Sprintf("fabric.hop_wait_us.h%d", c), "us", l.hops.MeanQueueing(metrics.HopClass(c)))
	}

	sc := l.sched
	scheduled := float64(max(sc.Near+sc.Wheel+sc.Far, 1))
	set("sim.events", "count", float64(o.events))
	set("sim.events_per_pkt", "count/pkt", float64(o.events)/pkts)
	set("sim.ns_per_event", "ns", perRep(func(r rep) float64 { return float64(r.run.Nanoseconds()) / float64(r.out.events) }))
	set("sim.sched.near_frac", "frac", float64(sc.Near)/scheduled)
	set("sim.sched.wheel_frac", "frac", float64(sc.Wheel)/scheduled)
	set("sim.sched.far_frac", "frac", float64(sc.Far)/scheduled)
	set("sim.sched.heap_dispatch_frac", "frac", float64(sc.DispatchHeap)/float64(max(sc.DispatchHeap+sc.DispatchList, 1)))
	set("sim.sched.cascades", "count", float64(sc.Cascades))

	set("transport.handle_calls", "count", float64(l.handleCalls))
	set("transport.handle_ns", "ns", perRep(func(r rep) float64 {
		return float64(r.l.handleTime) / float64(max(r.l.handleTimed, 1))
	}))
	set("transport.retransmits", "count", float64(o.retransmits))
	set("transport.timeouts", "count", float64(o.timeouts))
	set("transport.ooo", "count", float64(o.ooo))
	set("transport.flows_done_frac", "frac", float64(o.flowsDone)/float64(max(o.flowsStarted, 1)))

	set("workload.flows", "count", float64(o.flowsStarted))
	set("obs.snapshots", "count", float64(l.snapshots))

	set("runtime.gc_cycles", "count", perRep(func(r rep) float64 { return float64(r.l.rt1.gcCycles - r.l.rt0.gcCycles) }))
	set("runtime.gc_cpu_s", "s", perRep(func(r rep) float64 { return r.l.rt1.gcCPU - r.l.rt0.gcCPU }))
	set("runtime.cpu_s", "s", perRep(func(r rep) float64 { return r.l.rt1.cpu - r.l.rt0.cpu }))

	set("trace.wall_s", "s", median(wallT))
	set("trace.untraced_wall_s", "s", median(wallU))
	if u := median(wallU); u > 0 {
		set("trace.overhead_frac", "frac", median(wallT)/u-1)
	}
}

func durMs(d time.Duration) float64 { return float64(d) / 1e6 }

func medianDur(ds []time.Duration) time.Duration {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = float64(d)
	}
	return time.Duration(median(v))
}

func maxDur(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		m = max(m, d)
	}
	return m
}

// peakRSSMB reads the process's peak resident set (VmHWM) since the last
// resetPeakRSS from the kernel, which tracks it without stopping the Go
// world.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// resetPeakRSS sets VmHWM back to the current resident set, so the next
// peakRSSMB covers one rep instead of the whole process.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
