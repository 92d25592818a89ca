package experiments

import (
	"fmt"
	"testing"

	"drill/internal/obs"
	"drill/internal/units"
)

// findPoint returns the value of a scalar series in a snapshot, or -1.
func findPoint(s *obs.Snapshot, name, labels string) float64 {
	for i := range s.Points {
		if s.Points[i].Name == name && s.Points[i].Labels == labels {
			return s.Points[i].Value
		}
	}
	return -1
}

// sumPoints sums every series of a family across its label sets.
func sumPoints(s *obs.Snapshot, name string) float64 {
	var sum float64
	for i := range s.Points {
		if s.Points[i].Name == name {
			sum += s.Points[i].Value
		}
	}
	return sum
}

// TestMetricsAreByteIdentical is the issue's determinism proof: enabling
// the full metrics stack — instrument emission at every fabric/transport
// hot-path site plus the sim-time snapshotter — may not change a single
// result byte. The grid is the conformance composition: the tiny
// scheme × seed sweep plus a drop-heavy cell and a mid-run link-failure
// cell, so the compared path includes overflow drops, dead-link drains,
// retransmissions, and reconvergence, not just happy-path delivery.
func TestMetricsAreByteIdentical(t *testing.T) {
	cells := tinySweepCfgs()
	lossy, _ := SchemeByName("ECMP")
	cells = append(cells, RunCfg{
		Topo: fig6Topo(0), Scheme: lossy, Seed: 11, Load: 0.9, QueueCap: 8,
		Warmup:  100 * units.Microsecond,
		Measure: 400 * units.Microsecond,
	})
	fail, _ := SchemeByName("DRILL")
	cells = append(cells, RunCfg{
		Topo: fig6Topo(0), Scheme: fail, Seed: 12, Load: 0.5,
		FailLinks: 1, FailAt: 200 * units.Microsecond,
		Warmup:  100 * units.Microsecond,
		Measure: 400 * units.Microsecond,
	})
	for i, cfg := range cells {
		plain := Run(cfg)

		instr := cfg
		instr.Obs = obs.NewRegistry(8)
		instr.ObsScope = fmt.Sprintf(`cell="%d"`, i)
		instr.ObsSample = 50 * units.Microsecond
		rm := Run(instr)

		if got, want := Fingerprint(rm), Fingerprint(plain); got != want {
			t.Errorf("cell %d (%s seed=%d): metrics-enabled run differs:\n--- with\n%s--- without\n%s",
				i, cfg.Scheme.Name, cfg.Seed, got, want)
		}

		// The registry must actually have observed the run — a stack that
		// is byte-identical because it is dead proves nothing.
		last := instr.Obs.Latest()
		if last == nil {
			t.Fatalf("cell %d: snapshotter never published", i)
		}
		if delivered := findPoint(last, "drill_fabric_delivered_total", instr.ObsScope); delivered <= 0 {
			t.Errorf("cell %d: delivered counter = %v, want > 0", i, delivered)
		}
		// Cross-check the wired counters against the run's own aggregates.
		if drops := sumPoints(last, "drill_fabric_drops_total"); int64(drops) != rm.Drops {
			t.Errorf("cell %d: fabric drop counters sum to %v, RunResult says %d", i, drops, rm.Drops)
		}
		if retx := findPoint(last, "drill_transport_retransmits_total", instr.ObsScope); int64(retx) != rm.Retransmits {
			t.Errorf("cell %d: retransmit counter = %v, RunResult says %d", i, retx, rm.Retransmits)
		}
		if ooo := findPoint(last, "drill_transport_out_of_order_total", instr.ObsScope); int64(ooo) != rm.OutOfOrder {
			t.Errorf("cell %d: out-of-order counter = %v, RunResult says %d", i, ooo, rm.OutOfOrder)
		}
	}
}

// TestSweepWithMetricsIsByteIdentical runs a whole sweep fan-out with and
// without a shared registry (and manifest collection) and compares every
// cell's fingerprint — the sweep-level version of the proof, covering the
// runner-metrics done hooks and per-cell scope assignment too.
func TestSweepWithMetricsIsByteIdentical(t *testing.T) {
	cfgs := tinySweepCfgs()

	plainOpts := Options{Workers: 2}
	plain := plainOpts.runAll(append([]RunCfg(nil), cfgs...), nil)

	reg := obs.NewRegistry(16)
	man := obs.NewManifest("test-sweep", 1)
	obsOpts := Options{Workers: 2, ExpID: "tiny", Obs: reg, Manifest: man}
	instr := obsOpts.runAll(append([]RunCfg(nil), cfgs...), nil)

	for i := range cfgs {
		if got, want := Fingerprint(instr[i]), Fingerprint(plain[i]); got != want {
			t.Errorf("cell %d: sweep with metrics differs:\n--- with\n%s--- without\n%s", i, got, want)
		}
	}
	if len(man.Cells) != len(cfgs) {
		t.Fatalf("manifest has %d cells, want %d", len(man.Cells), len(cfgs))
	}
	for i, c := range man.Cells {
		if c.Exp != "tiny" || c.Cell != fmt.Sprint(i) {
			t.Errorf("manifest cell %d mislabelled: %+v", i, c)
		}
		if c.ConfigHash == "" || c.Events == 0 {
			t.Errorf("manifest cell %d incomplete: %+v", i, c)
		}
		if c.Events != plain[i].Events {
			t.Errorf("manifest cell %d events %d, run had %d", i, c.Events, plain[i].Events)
		}
	}
	if reg.Latest() == nil {
		t.Fatal("sweep registry never published a snapshot")
	}
	// A run's final snapshot precedes its own done callback, so the last
	// published snapshot can trail the runner counters by one cell; a
	// fresh capture sees the settled state.
	final := reg.Capture(0)
	if done := findPoint(final, "drill_runner_cells_done_total", `exp="tiny"`); done != float64(len(cfgs)) {
		t.Errorf("runner cells-done = %v, want %d", done, len(cfgs))
	}
}

// TestProvenanceIsDeterministic pins the provenance record itself: same
// config, same hash and counters, run after run — and a different seed
// yields a different hash.
func TestProvenanceIsDeterministic(t *testing.T) {
	cfg := tinySweepCfgs()[0]
	a, b := Run(cfg), Run(cfg)
	// Wall-derived fields are the one legit difference between runs.
	a.Prov.WallNs, b.Prov.WallNs = 0, 0
	a.Prov.StallNs, b.Prov.StallNs = 0, 0
	if a.Prov != b.Prov {
		t.Errorf("provenance differs across identical runs:\n%+v\n%+v", a.Prov, b.Prov)
	}
	other := cfg
	other.Seed += 1000
	c := Run(other)
	if c.Prov.ConfigHash == a.Prov.ConfigHash {
		t.Error("different seeds produced the same config hash")
	}
}
