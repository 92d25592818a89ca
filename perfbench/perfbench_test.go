package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
	"time"

	"drill/internal/units"
)

// short is the traffic-window scale the tests run every workload at.
const short = 0.25

// scaled returns the spec with its traffic window multiplied by f.
func (w spec) scaled(f float64) spec {
	w.warmup = units.Time(float64(w.warmup) * f)
	w.measure = units.Time(float64(w.measure) * f)
	return w
}

// TestSecondSeed runs a whole batch of every workload from a seed other
// than the one the benchmark was tuned on, at a short horizon, untraced
// and traced, and checks each run is correct and reports exactly the
// metrics BENCHMARK.json declares. The traced pass also holds the wrappers
// to observing only (bench fails a traced rep whose digest differs from
// the untraced rep's) and checks that they saw the calls they wrap: Choose,
// HandlePacket, and one BuildTables per epoch.
func TestSecondSeed(t *testing.T) {
	e2e, perLayer := declaredMetrics(t)
	for _, w := range specs {
		w := w.scaled(short)
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res, digests := bench(w, 7, time.Nanosecond, traced)
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: correct %v, %d of %d failed", traced, res.Correct, res.Failed, res.Attempted)
				}
				if len(digests) != w.batch+1 {
					t.Fatalf("%d digest lines for a batch of %d", len(digests), w.batch)
				}
				want := e2e
				if traced {
					want = perLayer
				}
				if got := keys(res.Metrics); !slices.Equal(got, want) {
					t.Fatalf("traced=%v metrics %v, BENCHMARK.json declares %v", traced, got, want)
				}
				if !traced {
					for name, m := range res.Metrics {
						if !(m.Value > 0) {
							t.Errorf("%s = %v, want > 0", name, m.Value)
						}
					}
					continue
				}
				v := func(name string) float64 { return res.Metrics[name].Value }
				if v("lb.choose_calls") == 0 || v("transport.handle_calls") == 0 || v("lb.table_builds") == 0 {
					t.Fatalf("wrappers saw no calls: choose %v, handle %v, table builds %v",
						v("lb.choose_calls"), v("transport.handle_calls"), v("lb.table_builds"))
				}
				if w.flap && v("lb.table_builds") != v("fabric.epochs") {
					t.Fatalf("%v table builds for %v epochs", v("lb.table_builds"), v("fabric.epochs"))
				}
			}
		})
	}
}

// TestDigestRepeats runs one member twice in a process: same seed, same
// simulated statistics.
func TestDigestRepeats(t *testing.T) {
	w := specs[0].scaled(short)
	a, b := doRep(w, batchSeed(3, 1), false), doRep(w, batchSeed(3, 1), false)
	if a.err != nil || b.err != nil {
		t.Fatalf("%v; %v", a.err, b.err)
	}
	if a.out.digestText() != b.out.digestText() {
		t.Fatalf("same seed, different digests:\n%s\n%s", a.out.digestText(), b.out.digestText())
	}
	c := doRep(w, batchSeed(4, 1), false)
	if c.out.digestText() == a.out.digestText() {
		t.Fatalf("seeds 3 and 4 gave the same digest %s", a.out.digestText())
	}
}

func declaredMetrics(t *testing.T) (e2e, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(e2e)
	sort.Strings(perLayer)
	return e2e, perLayer
}

func keys(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
