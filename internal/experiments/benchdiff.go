package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Bench regression guard: DiffBench compares a fresh BenchReport against
// the committed baseline with tolerances wide enough to absorb runner
// noise but tight enough to catch a real hot-path regression. CI runs it
// with -strict as a blocking gate: a regression turns the build red.
// Wall-clock rates still depend on the machine that produced each
// snapshot, so the diff reports — as warnings, never failures — when the
// two snapshots disagree on CPU count or GOMAXPROCS.

const (
	// BenchEvRateTol is the relative events/s slowdown tolerated before a
	// cell is flagged (10%: same-hardware noise on the multi-second cells
	// stays in the low single digits).
	BenchEvRateTol = 0.10
	// BenchAllocsTol is the absolute allocs/event increase tolerated
	// (+0.1: the steady state is ~0.02 allocs/event, so a tenth of an
	// allocation per event is a structural change, not jitter — the
	// deterministic event counts make this column stable).
	BenchAllocsTol = 0.1
)

// BenchFinding is one compared metric of one cell.
type BenchFinding struct {
	Cell     string  `json:"cell"`
	Metric   string  `json:"metric"`
	Baseline float64 `json:"baseline"`
	Current  float64 `json:"current"`
	// Delta is relative for rates (fraction of baseline), absolute for
	// allocs/event.
	Delta     float64 `json:"delta"`
	Regressed bool    `json:"regressed"`
	Note      string  `json:"note,omitempty"`
}

// BenchDiff is the full comparison document.
type BenchDiff struct {
	BaselineSeed int64          `json:"baseline_seed"`
	CurrentSeed  int64          `json:"current_seed"`
	Findings     []BenchFinding `json:"findings"`
	Regressions  int            `json:"regressions"`
}

// DiffBench compares current against baseline cell by cell (matched by
// name) plus the micro allocs/op rows.
func DiffBench(baseline, current *BenchReport) *BenchDiff {
	d := &BenchDiff{BaselineSeed: baseline.Seed, CurrentSeed: current.Seed}
	add := func(f BenchFinding) {
		if f.Regressed {
			d.Regressions++
		}
		d.Findings = append(d.Findings, f)
	}

	// Machine mismatch is a warning, not a regression: the events/s
	// columns are only meaningful between snapshots from comparable
	// hardware, and CI containers often differ from the baseline machine.
	if baseline.NumCPU != current.NumCPU || baseline.GoMaxProcs != current.GoMaxProcs {
		add(BenchFinding{Cell: "machine", Metric: "cpus",
			Baseline: float64(baseline.NumCPU), Current: float64(current.NumCPU),
			Note: fmt.Sprintf("snapshots from different machines (num_cpu %d/gomaxprocs %d vs %d/%d): events/s deltas are advisory",
				baseline.NumCPU, baseline.GoMaxProcs, current.NumCPU, current.GoMaxProcs)})
	}

	cur := make(map[string]BenchCellResult, len(current.Cells))
	for _, c := range current.Cells {
		cur[c.Name] = c
	}
	for _, b := range baseline.Cells {
		c, ok := cur[b.Name]
		if !ok {
			add(BenchFinding{Cell: b.Name, Metric: "present", Regressed: true,
				Note: "cell missing from current report"})
			continue
		}
		delete(cur, b.Name)

		// events/s: relative, slower-only (faster is progress, not noise
		// to flag — but it is still reported for the trend line).
		f := BenchFinding{Cell: b.Name, Metric: "events_per_sec",
			Baseline: b.EventsPerSec, Current: c.EventsPerSec}
		if b.EventsPerSec > 0 {
			f.Delta = (c.EventsPerSec - b.EventsPerSec) / b.EventsPerSec
			f.Regressed = f.Delta < -BenchEvRateTol
		}
		add(f)

		// allocs/event: absolute increase.
		f = BenchFinding{Cell: b.Name, Metric: "allocs_per_event",
			Baseline: b.AllocsPerEvent, Current: c.AllocsPerEvent,
			Delta: c.AllocsPerEvent - b.AllocsPerEvent}
		f.Regressed = f.Delta > BenchAllocsTol
		add(f)

		// Deterministic columns: same seed must reproduce event counts
		// exactly; a drift is information (the sim changed), never noise.
		if baseline.Seed == current.Seed && b.Events != c.Events {
			add(BenchFinding{Cell: b.Name, Metric: "events",
				Baseline: float64(b.Events), Current: float64(c.Events),
				Note: "event count changed at equal seed: the simulation's behaviour changed"})
		}
	}
	for name := range cur {
		add(BenchFinding{Cell: name, Metric: "present",
			Note: "new cell, no baseline"})
	}

	micro := []struct {
		name     string
		base, cu float64
	}{
		{"micro.timer_reset_stop", baseline.Micro.TimerResetStop, current.Micro.TimerResetStop},
		{"micro.pool_get_put", baseline.Micro.PoolGetPut, current.Micro.PoolGetPut},
		{"micro.send_deliver", baseline.Micro.SendDeliver, current.Micro.SendDeliver},
		{"micro.shard_window", baseline.Micro.ShardWindow, current.Micro.ShardWindow},
		{"micro.sched_dense", baseline.Micro.SchedDense, current.Micro.SchedDense},
	}
	for _, m := range micro {
		add(BenchFinding{Cell: "micro", Metric: m.name, Baseline: m.base, Current: m.cu,
			Delta: m.cu - m.base, Regressed: m.cu-m.base > BenchAllocsTol})
	}
	return d
}

// Format renders the diff as an aligned text table with a verdict line.
func (d *BenchDiff) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "bench diff (baseline seed %d, current seed %d)\n", d.BaselineSeed, d.CurrentSeed)
	fmt.Fprintf(&b, "%-16s %-22s %14s %14s %10s  %s\n", "cell", "metric", "baseline", "current", "delta", "verdict")
	for _, f := range d.Findings {
		verdict := "ok"
		if f.Regressed {
			verdict = "REGRESSED"
		}
		delta := fmt.Sprintf("%+.3g", f.Delta)
		if f.Metric == "events_per_sec" {
			delta = fmt.Sprintf("%+.1f%%", f.Delta*100)
		}
		fmt.Fprintf(&b, "%-16s %-22s %14.6g %14.6g %10s  %s", f.Cell, f.Metric, f.Baseline, f.Current, delta, verdict)
		if f.Note != "" {
			fmt.Fprintf(&b, " (%s)", f.Note)
		}
		b.WriteByte('\n')
	}
	if d.Regressions == 0 {
		fmt.Fprintf(&b, "verdict: no regressions (events/s tol ±%.0f%%, allocs/event tol +%.1f)\n",
			BenchEvRateTol*100, BenchAllocsTol)
	} else {
		fmt.Fprintf(&b, "verdict: %d regression(s) (events/s tol ±%.0f%%, allocs/event tol +%.1f)\n",
			d.Regressions, BenchEvRateTol*100, BenchAllocsTol)
	}
	return b.String()
}

// FormatMarkdown renders the diff as a GitHub-flavored markdown table,
// the shape CI appends to $GITHUB_STEP_SUMMARY.
func (d *BenchDiff) FormatMarkdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### Bench diff (baseline seed %d, current seed %d)\n\n", d.BaselineSeed, d.CurrentSeed)
	b.WriteString("| cell | metric | baseline | current | delta | verdict |\n")
	b.WriteString("|------|--------|---------:|--------:|------:|---------|\n")
	for _, f := range d.Findings {
		verdict := "ok"
		if f.Regressed {
			verdict = "**REGRESSED**"
		}
		delta := fmt.Sprintf("%+.3g", f.Delta)
		if f.Metric == "events_per_sec" {
			delta = fmt.Sprintf("%+.1f%%", f.Delta*100)
		}
		fmt.Fprintf(&b, "| %s | %s | %.6g | %.6g | %s | %s |\n",
			f.Cell, f.Metric, f.Baseline, f.Current, delta, verdict)
		if f.Note != "" {
			fmt.Fprintf(&b, "| | | | | | %s |\n", f.Note)
		}
	}
	if d.Regressions == 0 {
		fmt.Fprintf(&b, "\n**Verdict: no regressions** (events/s tol ±%.0f%%, allocs/event tol +%.1f)\n",
			BenchEvRateTol*100, BenchAllocsTol)
	} else {
		fmt.Fprintf(&b, "\n**Verdict: %d regression(s)** (events/s tol ±%.0f%%, allocs/event tol +%.1f)\n",
			d.Regressions, BenchEvRateTol*100, BenchAllocsTol)
	}
	return b.String()
}

// ReadBenchReport loads a BENCH_*.json snapshot.
func ReadBenchReport(path string) (*BenchReport, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep BenchReport
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != BenchSchemaVersion {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, BenchSchemaVersion)
	}
	return &rep, nil
}
