package main

import (
	"runtime"
	rtmetrics "runtime/metrics"
	"syscall"
	"time"

	"drill/internal/fabric"
	"drill/internal/lb"
	"drill/internal/metrics"
	"drill/internal/quiver"
	"drill/internal/sim"
	"drill/internal/topo"
)

// sampleEvery is the 1-in-N rate at which per-call host time is taken for
// lb Choose and transport HandlePacket. Timing every call would put two
// clock reads on each of millions of calls and slow the traced run well
// beyond the run it describes.
const sampleEvery = 64

// layers is one traced rep's per-layer record. Every figure is taken from
// the benchmark's side of a layer's public API.
type layers struct {
	topoBuild, fabricNew     time.Duration
	setupMallocs, setupBytes uint64

	routes      time.Duration
	paths       int
	quiverBuild time.Duration
	components  int

	tables []time.Duration // one per BuildTables call (construction + each epoch)

	chooseCalls, chooseTimed int64
	chooseTime               time.Duration
	handleCalls, handleTimed int64
	handleTime               time.Duration

	runMallocs, runBytes uint64
	rt0, rt1             runtimeSample

	hops               metrics.HopStats
	sched              sim.SchedStats
	poolGets, poolNews int64
	snapshots          int64
}

// tracedDRILL times table builds and samples Choose. Embedding keeps the
// TableBuilder, observer-interface and ShardUnsafe resolution of
// *lb.DRILLAsym exactly as the untraced balancer has them.
type tracedDRILL struct {
	*lb.DRILLAsym
	l *layers
}

func (d *tracedDRILL) BuildTables(net *fabric.Network) {
	t0 := time.Now()
	d.DRILLAsym.BuildTables(net)
	d.l.tables = append(d.l.tables, time.Since(t0))
}

func (d *tracedDRILL) Choose(net *fabric.Network, sw *fabric.Switch, eng *fabric.Engine, pkt *fabric.Packet) int32 {
	d.l.chooseCalls++
	if d.l.chooseCalls%sampleEvery != 0 {
		return d.DRILLAsym.Choose(net, sw, eng, pkt)
	}
	t0 := time.Now()
	p := d.DRILLAsym.Choose(net, sw, eng, pkt)
	d.l.chooseTime += time.Since(t0)
	d.l.chooseTimed++
	return p
}

// tracedHandler samples a host's transport agent. Its time includes the
// fabric sends the agent makes while handling the packet (ACKs, new data).
type tracedHandler struct {
	inner fabric.PacketHandler
	l     *layers
}

func (h *tracedHandler) HandlePacket(host *fabric.Host, pkt *fabric.Packet) {
	h.l.handleCalls++
	if h.l.handleCalls%sampleEvery != 0 {
		h.inner.HandlePacket(host, pkt)
		return
	}
	t0 := time.Now()
	h.inner.HandlePacket(host, pkt)
	h.l.handleTime += time.Since(t0)
	h.l.handleTimed++
}

func wrapHandlers(net *fabric.Network, t *topo.Topology, l *layers) {
	for _, id := range t.Hosts {
		h := net.Host(id)
		h.Handler = &tracedHandler{inner: h.Handler, l: l}
	}
}

// probeControlPlane repeats the construction-time control-plane work on
// the same topology, outside every timed phase, to split fabric.New into
// its routes and Quiver parts; it also counts the shortest paths the
// Quiver enumerates and the components the tables installed.
func probeControlPlane(in *instance, l *layers) {
	t0 := time.Now()
	r := topo.ComputeRoutes(in.t)
	l.routes = time.Since(t0)
	for _, src := range in.t.Leaves {
		for _, dst := range in.t.Leaves {
			if src != dst {
				l.paths += len(r.Paths(src, dst))
			}
		}
	}
	t1 := time.Now()
	quiver.Build(r)
	l.quiverBuild = time.Since(t1)
	for _, sw := range in.net.SwitchList() {
		for li := range in.t.Leaves {
			l.components += len(sw.Groups(int32(li)))
		}
	}
}

type memSample struct{ mallocs, bytes uint64 }

// readMem stops the world; it is called only in traced reps, outside
// Sim.RunUntil.
func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{ms.Mallocs, ms.TotalAlloc}
}

type runtimeSample struct {
	gcCycles   uint64
	gcCPU, cpu float64 // seconds
}

func (a runtimeSample) minus(b runtimeSample) runtimeSample {
	return runtimeSample{a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU, a.cpu - b.cpu}
}

func (a runtimeSample) plus(b runtimeSample) runtimeSample {
	return runtimeSample{a.gcCycles + b.gcCycles, a.gcCPU + b.gcCPU, a.cpu + b.cpu}
}

func readRuntime() runtimeSample {
	s := []rtmetrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return runtimeSample{
		gcCycles: s[0].Value.Uint64(),
		gcCPU:    s[1].Value.Float64(),
		cpu:      cpu.Seconds(),
	}
}
