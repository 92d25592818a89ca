package conformance

import (
	"flag"
	"testing"

	"drill/internal/experiments"
	"drill/internal/obs"
	"drill/internal/topo"
	"drill/internal/units"
)

// shardCounts is the full sweep the acceptance criteria name. Shards=1
// exercises the whole window machinery (barriers, outbox exchange, fold)
// with no actual partitioning — the cheapest way to catch a protocol bug
// that even a single shard would trip.
var shardCounts = []int{1, 2, 4, 8}

// -shards narrows the sweep to one count, so CI can fan the matrix out
// across jobs: go test ./internal/experiments/conformance -args -shards 4
var shardOverride = flag.Int("shards", 0,
	"test only this shard count against the sequential engine (0 = full sweep)")

func counts() []int {
	if *shardOverride > 0 {
		return []int{*shardOverride}
	}
	return shardCounts
}

// TestShardedMatchesSequential is the issue's headline proof: every
// conformance cell, at every shard count, fingerprint-identical to the
// sequential engine.
func TestShardedMatchesSequential(t *testing.T) {
	for i, cfg := range Cells() {
		for _, d := range Diff(cfg, counts(), Options{}) {
			t.Errorf("cell %d (%s seed=%d): %s", i, cfg.Scheme.Name, cfg.Seed, d)
		}
	}
}

// TestShardedTracedCellMatches proves the sharded engine with the qtrace
// instrumentation attached (sampler-kind tracer + periodic trace sampler)
// accepts the same event stream: per-kind counts identical across engines,
// and the result bytes untouched by tracing.
func TestShardedTracedCellMatches(t *testing.T) {
	cfg := Cells()[tracedCell]
	for _, d := range Diff(cfg, counts(), Options{Trace: true}) {
		t.Error(d)
	}
}

// TestShardedObsCellMatches proves the metrics stack — instrument emission
// from inside shard context plus the global snapshotter — changes nothing
// and snapshots identically under every engine.
func TestShardedObsCellMatches(t *testing.T) {
	cfg := Cells()[obsCell]
	for _, d := range Diff(cfg, counts(), Options{Obs: true}) {
		t.Error(d)
	}
}

// TestShardedLossyAndFailureCells re-runs the adversarial cells — overflow
// drops, mid-run failures — with full instrumentation, since drops and
// reconvergence cross the paths a barrier bug would corrupt first.
// Selection is by shape, not position, so growing Cells() can't silently
// rotate which cells this covers.
func TestShardedLossyAndFailureCells(t *testing.T) {
	ran := 0
	for _, cfg := range Cells() {
		if cfg.QueueCap == 0 && cfg.FailLinks == 0 {
			continue
		}
		ran++
		for _, d := range Diff(cfg, counts(), Options{Trace: true, Obs: true}) {
			t.Errorf("%s seed=%d: %s", cfg.Scheme.Name, cfg.Seed, d)
		}
	}
	if ran < 2 {
		t.Fatalf("expected at least 2 adversarial cells, found %d", ran)
	}
}

// TestShardedReconfigurationCells is the epoch-swap proof the acceptance
// criteria name: a scripted mid-run fail → restore campaign — each action
// an epoch swap with table (and, for DRILL, Quiver) recomputation — is
// byte-identical between the sequential and sharded engines at every
// shard count, with full instrumentation attached.
func TestShardedReconfigurationCells(t *testing.T) {
	for i, cfg := range ReconfigCells() {
		for _, d := range Diff(cfg, counts(), Options{Trace: true, Obs: true}) {
			t.Errorf("reconfig cell %d (%s seed=%d campaign=%s): %s",
				i, cfg.Scheme.Name, cfg.Seed, cfg.Campaign.Name, d)
		}
	}
}

// TestEngineTelemetryIsByteIdentical is the engine observatory's
// observe-never-steer proof: turning on EngineObs — per-shard window
// counters folded at barriers, the exchange matrix, scheduler internals,
// pprof-label bookkeeping, the engine report — may not change a single
// result byte, on the sequential engine and at every shard count, across
// every conformance cell including the reconfiguration campaigns. Only
// the result fingerprint is compared (not ObsLines): the drill_shard_* /
// drill_sched_* series sets are engine-shaped by design, which is exactly
// why EngineObs is opt-in.
func TestEngineTelemetryIsByteIdentical(t *testing.T) {
	cells := append(Cells(), ReconfigCells()...)
	engineCounts := append([]int{0}, counts()...)
	if testing.Short() {
		cells = cells[:2]
		engineCounts = []int{0, 2}
	}
	for i, cfg := range cells {
		for _, n := range engineCounts {
			v := cfg
			v.Shards = n
			plain := experiments.Fingerprint(experiments.Run(v))

			instr := v
			instr.Obs = obs.NewRegistry(8)
			instr.ObsScope = `conf="engine"`
			instr.ObsSample = 50 * units.Microsecond
			instr.EngineObs = true
			res := experiments.Run(instr)
			if got := experiments.Fingerprint(res); got != plain {
				t.Errorf("cell %d (%s seed=%d) shards=%d: engine telemetry changed the results:\n--- off\n%s--- on\n%s",
					i, cfg.Scheme.Name, cfg.Seed, n, plain, got)
			}

			// The telemetry must be live, not byte-identical-because-dead:
			// every shard's events gauge registered and their sum equal to
			// the run's own event count.
			last := instr.Obs.Latest()
			if last == nil {
				t.Fatalf("cell %d shards=%d: snapshotter never published", i, n)
			}
			shardLabels := map[string]bool{}
			var events float64
			for j := range last.Points {
				if last.Points[j].Name == "drill_shard_events_total" {
					shardLabels[last.Points[j].Labels] = true
					events += last.Points[j].Value
				}
			}
			if n == 0 {
				if len(shardLabels) != 0 {
					t.Errorf("cell %d sequential: %d drill_shard_events_total series, want none", i, len(shardLabels))
				}
			} else {
				// Partitioning clamps to the domain count, so expect the
				// effective shard count the engine actually ran.
				if res.EngineRep == nil || len(res.EngineRep.Shards) == 0 {
					t.Fatalf("cell %d shards=%d: no engine report", i, n)
				}
				if want := len(res.EngineRep.Shards); len(shardLabels) != want {
					t.Errorf("cell %d shards=%d: %d drill_shard_events_total series, want %d",
						i, n, len(shardLabels), want)
				}
				// The gauges exclude the global scheduler's events, so the
				// reference is the report's shard total, which in turn must
				// stay within the run's full event count.
				if want := res.EngineRep.TotalEvents(); uint64(events) != want {
					t.Errorf("cell %d shards=%d: shard events gauges sum to %v, report says %d",
						i, n, events, want)
				}
				if res.EngineRep.TotalEvents() == 0 || res.EngineRep.TotalEvents() > res.Events {
					t.Errorf("cell %d shards=%d: shard event total %d vs run events %d",
						i, n, res.EngineRep.TotalEvents(), res.Events)
				}
			}
		}
	}
}

// FuzzShardedVsSequential randomizes topology size, seed, load, and shard
// count, and requires byte-identity on every input. Runs as a seeded
// regression grid under `go test`; `go test -fuzz=FuzzShardedVsSequential`
// explores further (nightly CI gives it five minutes).
func FuzzShardedVsSequential(f *testing.F) {
	f.Add(uint8(2), uint8(4), uint8(3), int64(1), uint8(30), uint8(2))
	f.Add(uint8(4), uint8(6), uint8(4), int64(7), uint8(70), uint8(3))
	f.Add(uint8(3), uint8(8), uint8(2), int64(42), uint8(50), uint8(8))
	f.Add(uint8(1), uint8(2), uint8(5), int64(99), uint8(90), uint8(5))
	f.Fuzz(func(t *testing.T, spines, leaves, hosts uint8, seed int64, loadPct, shards uint8) {
		sp := 1 + int(spines)%4 // 1..4 spines
		lv := 2 + int(leaves)%7 // 2..8 leaves
		hp := 2 + int(hosts)%5  // 2..6 hosts per leaf
		load := 0.1 + float64(loadPct%90)/100.0
		nsh := 1 + int(shards)%8 // Partition clamps to the leaf count
		sc, _ := experiments.SchemeByName([]string{"ECMP", "DRILL", "Random"}[int(seed%3+3)%3])
		cfg := experiments.RunCfg{
			Topo: func() *topo.Topology {
				return topo.LeafSpine(topo.LeafSpineConfig{
					Spines: sp, Leaves: lv, HostsPerLeaf: hp,
					HostRate: 10 * units.Gbps, CoreRate: 40 * units.Gbps,
				})
			},
			Scheme: sc, Seed: seed, Load: load,
			Warmup:  50 * units.Microsecond,
			Measure: 200 * units.Microsecond,
		}
		for _, d := range Diff(cfg, []int{nsh}, Options{}) {
			t.Errorf("spines=%d leaves=%d hosts=%d seed=%d load=%.2f: %s",
				sp, lv, hp, seed, load, d)
		}
	})
}
