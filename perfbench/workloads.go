package main

import (
	"fmt"
	"time"

	"drill/internal/experiments"
	"drill/internal/fabric"
	"drill/internal/lb"
	"drill/internal/obs"
	"drill/internal/sim"
	"drill/internal/topo"
	"drill/internal/transport"
	"drill/internal/units"
	"drill/internal/workload"
)

// spec is one benchmark workload: a topology, DRILL(2,1)+Quiver with the
// paper's 100µs receiver shim, an open-loop Poisson flow generator at a
// fixed core load, and optionally a flap campaign with a live metrics
// registry. Every workload runs on the sequential engine.
type spec struct {
	name    string
	topo    func() *topo.Topology
	load    float64
	warmup  units.Time
	measure units.Time
	drain   units.Time
	// batch is how many traffic matrices (seeds) one run simulates.
	batch int
	// flap attaches FlapStorm(4, 8) with a 100µs reconvergence delay and
	// an obs registry snapshotting every 100µs, as drillsim -metrics-addr
	// does: the control plane rebuilds tables mid-run.
	flap bool
}

var specs = []spec{
	{
		// fig6 at scale 0: the event loop dominates; tables are built
		// once, and the symmetric fabric collapses them to one group per
		// destination.
		name: "leafspine-drill",
		topo: func() *topo.Topology {
			return topo.LeafSpine(topo.LeafSpineConfig{
				Spines: 4, Leaves: 8, HostsPerLeaf: 20,
				HostRate: 10 * units.Gbps, CoreRate: 40 * units.Gbps,
			})
		},
		load:    0.8,
		warmup:  200 * units.Microsecond,
		measure: 2 * units.Millisecond,
		drain:   20 * units.Millisecond,
		batch:   8,
	},
	{
		// k=16 fat-tree (1024 hosts, 320 switches): Quiver path
		// enumeration dominates setup, and the run loop is the slow
		// fat-tree loop of the ROADMAP.
		name: "fattree16-drill",
		topo: func() *topo.Topology {
			return topo.FatTree(topo.FatTreeConfig{K: 16, LinkRate: 10 * units.Gbps})
		},
		load:    0.5,
		warmup:  100 * units.Microsecond,
		measure: 300 * units.Microsecond,
		drain:   20 * units.Millisecond,
		batch:   4,
	},
	{
		// k=8 fat-tree under a flap storm: the same control plane as
		// fattree16-drill, rebuilt at every reconvergence inside the run.
		name: "fattree8-flap",
		topo: func() *topo.Topology {
			return topo.FatTree(topo.FatTreeConfig{K: 8, LinkRate: 10 * units.Gbps})
		},
		load:    0.5,
		warmup:  200 * units.Microsecond,
		measure: 2 * units.Millisecond,
		drain:   20 * units.Millisecond,
		batch:   8,
		flap:    true,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// instance is one assembled simulation, ready for its first event.
type instance struct {
	w    spec
	s    *sim.Sim
	t    *topo.Topology
	net  *fabric.Network
	reg  *transport.Registry
	obs  *obs.Registry
	snap *obs.Snapshotter
	end  units.Time
	// tooFast counts completed flows whose FCT beats the fastest NIC's
	// line rate.
	tooFast int64
}

// setup assembles the simulation for one rep: topology, network (routes
// and tables), transport agents, traffic and, for flap, the campaign and
// metrics registry. With tr non-nil every public setup call is timed into
// it and the balancer and host handlers are wrapped; the simulation is
// otherwise the same.
func setup(w spec, seed int64, tr *layers) *instance {
	in := &instance{w: w, end: w.warmup + w.measure}

	var bal fabric.Balancer = lb.NewDRILLAsym()
	if tr != nil {
		bal = &tracedDRILL{DRILLAsym: lb.NewDRILLAsym(), l: tr}
	}

	t0 := time.Now()
	in.t = w.topo()
	t1 := time.Now()
	in.s = sim.New(seed)
	cfg := fabric.Config{Balancer: bal}
	if w.flap {
		cfg.RouteDelay = 100 * units.Microsecond
	}
	var m0 memSample
	if tr != nil {
		m0 = readMem()
		t1 = time.Now() // keep the stop-the-world read out of fabric.new_ms
	}
	in.net = fabric.New(in.s, in.t, cfg)
	t2 := time.Now()
	if tr != nil {
		m1 := readMem()
		tr.topoBuild = t1.Sub(t0)
		tr.fabricNew = t2.Sub(t1)
		tr.setupMallocs = m1.mallocs - m0.mallocs
		tr.setupBytes = m1.bytes - m0.bytes
	}

	in.reg = transport.NewRegistry(in.s, in.net, transport.Config{ShimTimeout: experiments.DefaultShim})
	in.reg.MeasureFrom = w.warmup
	var fastest units.Rate
	for _, h := range in.t.Hosts {
		fastest = max(fastest, in.t.Chan(in.t.OutAll(h)[0]).Rate)
	}
	nsPerByte := 8e9 / float64(fastest)
	in.reg.OnComplete = func(f *transport.Sender) {
		if float64(f.FCT()) < float64(f.AckedBytes())*nsPerByte {
			in.tooFast++
		}
	}
	if tr != nil {
		wrapHandlers(in.net, in.t, tr)
	}

	if w.flap {
		in.obs = obs.NewRegistry(32)
		fm := in.net.EnableMetrics(in.obs, "")
		in.reg.EnableMetrics(in.obs, "")
		ev := in.obs.Gauge("drill_run_events", "", "Events dispatched so far by this run.")
		in.snap = obs.StartSnapshotter(in.s, in.obs, 100*units.Microsecond, fm.Refresh,
			func(units.Time) { ev.Set(float64(in.s.Executed)) })
		if err := experiments.FlapStorm(4, 8).Install(in.s, in.net, in.t, seed, in.end); err != nil {
			panic(err)
		}
	}

	sizes := workload.Truncate(workload.FacebookCache, 2e6)
	workload.NewGenerator(in.reg, sizes, workload.Load(w.load), in.end).Start()
	return in
}

// run drives the simulation through the traffic window and the drain, and
// returns the thread CPU time and the wall time spent inside Sim.RunUntil.
func (in *instance) run() (cpu, wall time.Duration) {
	t0, c0 := time.Now(), threadCPU()
	in.s.RunUntil(in.end)
	in.s.RunUntil(in.end + in.w.drain)
	cpu, wall = threadCPU()-c0, time.Since(t0)
	in.s.Halt()
	if in.snap != nil {
		in.snap.Final(in.s.Now())
		in.snap.Stop()
	}
	return cpu, wall
}
