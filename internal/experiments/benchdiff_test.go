package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func benchFixture() *BenchReport {
	return &BenchReport{
		Schema: BenchSchemaVersion, Seed: 1,
		Cells: []BenchCellResult{
			{Name: "ecmp-load0.5", EventsPerSec: 2e6, AllocsPerEvent: 0.10, Events: 1000},
			{Name: "drill-load0.5", EventsPerSec: 1e6, AllocsPerEvent: 0.20, Events: 2000},
		},
		Micro: MicroAllocs{TimerResetStop: 0, PoolGetPut: 0, SendDeliver: 6},
	}
}

// findDiff pulls one finding out of the diff by cell and metric.
func findDiff(t *testing.T, d *BenchDiff, cell, metric string) BenchFinding {
	t.Helper()
	for _, f := range d.Findings {
		if f.Cell == cell && f.Metric == metric {
			return f
		}
	}
	t.Fatalf("no finding for %s/%s in %+v", cell, metric, d.Findings)
	return BenchFinding{}
}

func TestDiffBenchCleanPass(t *testing.T) {
	base := benchFixture()
	cur := benchFixture()
	// 8% slower and +0.05 allocs: inside both tolerances.
	cur.Cells[0].EventsPerSec *= 0.92
	cur.Cells[0].AllocsPerEvent += 0.05
	d := DiffBench(base, cur)
	if d.Regressions != 0 {
		t.Fatalf("clean diff found %d regressions: %s", d.Regressions, d.Format())
	}
	if !strings.Contains(d.Format(), "no regressions") {
		t.Errorf("format lacks the verdict line:\n%s", d.Format())
	}
}

// TestDiffBenchCPUMismatchWarns pins the machine-mismatch behaviour: a
// baseline from a different CPU count produces a warning finding, never a
// regression — CI containers must not fail the gate just for being
// smaller than the baseline machine.
func TestDiffBenchCPUMismatchWarns(t *testing.T) {
	base := benchFixture()
	base.NumCPU, base.GoMaxProcs = 16, 16
	cur := benchFixture()
	cur.NumCPU, cur.GoMaxProcs = 16, 1 // cgroup-quota shape
	d := DiffBench(base, cur)
	if d.Regressions != 0 {
		t.Fatalf("CPU mismatch counted as regression: %s", d.Format())
	}
	f := findDiff(t, d, "machine", "cpus")
	if f.Regressed || !strings.Contains(f.Note, "different machines") {
		t.Errorf("machine finding should be an unregressed warning, got %+v", f)
	}
	// Identical machines: no warning row at all.
	same := DiffBench(base, base)
	for _, f := range same.Findings {
		if f.Cell == "machine" {
			t.Errorf("same-machine diff emitted a machine warning: %+v", f)
		}
	}
}

func TestDiffBenchMarkdown(t *testing.T) {
	base := benchFixture()
	cur := benchFixture()
	cur.Cells[0].EventsPerSec *= 0.5
	md := DiffBench(base, cur).FormatMarkdown()
	for _, want := range []string{
		"| cell | metric | baseline | current | delta | verdict |",
		"| ecmp-load0.5 | events_per_sec |",
		"**REGRESSED**",
		"**Verdict: 1 regression(s)**",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown output lacks %q:\n%s", want, md)
		}
	}
	if clean := DiffBench(base, base).FormatMarkdown(); !strings.Contains(clean, "**Verdict: no regressions**") {
		t.Errorf("clean markdown output lacks the verdict line:\n%s", clean)
	}
}

func TestDiffBenchFlagsRegressions(t *testing.T) {
	base := benchFixture()
	cur := benchFixture()
	cur.Cells[0].EventsPerSec = base.Cells[0].EventsPerSec * 0.5 // −50% > 25% tol
	cur.Cells[1].AllocsPerEvent = base.Cells[1].AllocsPerEvent + 1.0
	cur.Micro.PoolGetPut = 1.0
	cur.Micro.SchedDense = 1.0
	d := DiffBench(base, cur)
	if !findDiff(t, d, "ecmp-load0.5", "events_per_sec").Regressed {
		t.Error("50% events/s drop not flagged")
	}
	if !findDiff(t, d, "drill-load0.5", "allocs_per_event").Regressed {
		t.Error("+1.0 allocs/event not flagged")
	}
	if !findDiff(t, d, "micro", "micro.pool_get_put").Regressed {
		t.Error("micro alloc regression not flagged")
	}
	if !findDiff(t, d, "micro", "micro.sched_dense").Regressed {
		t.Error("dense-window micro alloc regression not flagged")
	}
	if d.Regressions != 4 {
		t.Errorf("regressions = %d, want 4:\n%s", d.Regressions, d.Format())
	}
	// Faster is never a regression.
	fast := benchFixture()
	fast.Cells[0].EventsPerSec *= 2
	if d := DiffBench(base, fast); d.Regressions != 0 {
		t.Errorf("a 2x speedup was flagged:\n%s", d.Format())
	}
}

func TestDiffBenchCellDrift(t *testing.T) {
	base := benchFixture()
	cur := benchFixture()
	cur.Cells = cur.Cells[:1]
	cur.Cells[0].Events = 999 // deterministic column drift at equal seed
	d := DiffBench(base, cur)
	if !findDiff(t, d, "drill-load0.5", "present").Regressed {
		t.Error("missing cell not flagged")
	}
	ev := findDiff(t, d, "ecmp-load0.5", "events")
	if ev.Regressed || !strings.Contains(ev.Note, "behaviour changed") {
		t.Errorf("event-count drift should be an informational finding, got %+v", ev)
	}
}

// TestReadBenchReportRoundTrips pins the file interface benchdiff and CI
// rely on — including that the committed baseline still parses.
func TestReadBenchReportRoundTrips(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_x.json")
	if err := os.WriteFile(path, []byte(`{"schema":"drill-bench/v1","seed":3,"cells":[],"micro":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := ReadBenchReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seed != 3 {
		t.Errorf("seed = %d, want 3", rep.Seed)
	}
	if _, err := ReadBenchReport(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file did not error")
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"schema":"other/v9"}`), 0o644)
	if _, err := ReadBenchReport(bad); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("schema mismatch not rejected: %v", err)
	}

	if base, err := ReadBenchReport("../../BENCH_baseline.json"); err != nil {
		t.Errorf("committed baseline does not parse: %v", err)
	} else if len(base.Cells) == 0 {
		t.Error("committed baseline has no cells")
	}
}
