package experiments

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"drill/internal/trace"
	"drill/internal/units"
)

var updateReference = flag.Bool("update", false, "rewrite testdata/reference from the current engine")

// The files under testdata/reference were recorded on the two reference
// stacks the simulator used to carry next to its production paths: the
// plain binary-heap scheduler with one closure event per packet per hop,
// and the unpooled data plane that allocated every packet fresh. Both
// stacks are retired; their recorded fingerprints stand in for the
// same-build comparisons against them. The timing wheel, per-port event
// batching and packet recycling are representation changes, so the
// production stack must reproduce the record byte for byte. A diff is a
// behaviour change: name it in CHANGES.md, then re-record with
//
//	go test ./internal/experiments -run 'IsByteIdentical' -update
const referenceDir = "testdata/reference"

// referenceGrid is the tiny scheme × seed sweep plus a drop-heavy cell
// (tiny queues at high load) and a link-failure cell, so loss, timeout,
// dead-link drain, reroute and every packet-recycling site are on the
// compared path, not just delivery.
func referenceGrid(lossySeed, failSeed int64) []RunCfg {
	cells := tinySweepCfgs()
	lossy, _ := SchemeByName("ECMP")
	cells = append(cells, RunCfg{
		Topo: fig6Topo(0), Scheme: lossy, Seed: lossySeed, Load: 0.9, QueueCap: 8,
		Warmup:  100 * units.Microsecond,
		Measure: 400 * units.Microsecond,
	})
	fail, _ := SchemeByName("DRILL")
	return append(cells, RunCfg{
		Topo: fig6Topo(0), Scheme: fail, Seed: failSeed, Load: 0.5,
		FailLinks: 1, FailAt: 200 * units.Microsecond,
		Warmup:  100 * units.Microsecond,
		Measure: 400 * units.Microsecond,
	})
}

// renderGrid runs every cell and renders its fingerprint under a section
// header; each run also goes to check.
func renderGrid(cells []RunCfg, check func(i int, r *RunResult)) []byte {
	var b bytes.Buffer
	for i, cfg := range cells {
		r := Run(cfg)
		check(i, r)
		fmt.Fprintf(&b, "== cell %d %s seed=%d\n%s", i, cfg.Scheme.Name, cfg.Seed, Fingerprint(r))
	}
	return b.Bytes()
}

// compareReference diffs got against the recorded file name, or rewrites
// the file under -update.
func compareReference(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join(referenceDir, name)
	if *updateReference {
		if err := os.MkdirAll(referenceDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	section := ""
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if strings.HasPrefix(wl[i], "== ") {
			section = wl[i]
		}
		if gl[i] != wl[i] {
			t.Fatalf("run differs from the reference stack's %s at line %d (%s):\n got: %s\nwant: %s",
				path, i+1, section, gl[i], wl[i])
		}
	}
	t.Fatalf("run differs from the reference stack's %s in length: got %d lines, want %d", path, len(gl), len(wl))
}

// TestSchedulerIsByteIdentical holds the timing-wheel scheduler and the
// fabric's per-port event batching to their core contract: every cell
// must reproduce the fingerprint — FCTs, drops, retransmits, reordering,
// event counts, utilization — the heap-only, one-event-per-hop scheduler
// recorded for it.
func TestSchedulerIsByteIdentical(t *testing.T) {
	got := renderGrid(referenceGrid(21, 22), func(int, *RunResult) {})
	compareReference(t, "scheduler.txt", got)
}

// referenceGets blanks the pool draw count: the unpooled reference stack
// bypassed the pool, so its record carries no draw count to compare.
var referenceGets = regexp.MustCompile(`gets=\d+`)

// TestPoolingIsByteIdentical holds packet recycling to its core contract:
// pooling is an allocator change, not a behaviour change. Every cell must
// reproduce the fingerprint the unpooled data plane recorded for it, and
// must get real reuse out of the free list while doing so.
func TestPoolingIsByteIdentical(t *testing.T) {
	got := renderGrid(referenceGrid(11, 12), func(i int, r *RunResult) {
		if r.PacketGets == 0 || r.PacketAllocs >= r.PacketGets {
			t.Errorf("cell %d: pooling avoided nothing (allocs=%d gets=%d)", i, r.PacketAllocs, r.PacketGets)
		}
	})
	compareReference(t, "pooling.txt", referenceGets.ReplaceAll(got, []byte("gets=")))
}

// eventHash folds every trace event's fields into an FNV-64a hash in
// emission order.
type eventHash struct {
	h   hash.Hash64
	n   int64
	buf [8]byte
}

func (s *eventHash) Emit(ev trace.Event) {
	s.n++
	for _, v := range [...]uint64{uint64(ev.T), uint64(ev.Run), uint64(ev.Kind), uint64(ev.Hop),
		uint64(ev.Port), ev.Flow, uint64(ev.Seq), uint64(ev.Size), uint64(ev.QLen), math.Float64bits(ev.Val)} {
		binary.LittleEndian.PutUint64(s.buf[:], v)
		s.h.Write(s.buf[:])
	}
}

func (s *eventHash) Close() error { return nil }

// TestSchedulerIsByteIdenticalQTrace extends the scheduler's identity proof
// to an instrumented qtrace-style cell: a tracer sampling queue depths and
// port utilization on an observer ticker. Besides the result fingerprint,
// the sampled stream's event count and a hash over every event's fields
// must match the heap-only scheduler's record, which pins the
// observer/daemon event classes (excluded from Executed, never keeping Run
// alive) to the same dispatch points.
func TestSchedulerIsByteIdenticalQTrace(t *testing.T) {
	sc, _ := SchemeByName("DRILL")
	cfg := RunCfg{
		Topo: fig6Topo(0), Scheme: sc, Seed: 23, Load: 0.8,
		Warmup:  100 * units.Microsecond,
		Measure: 400 * units.Microsecond,
	}
	sink := &eventHash{h: fnv.New64a()}
	cfg.Tracer = trace.New(sink, trace.WithKinds(trace.QueueSample, trace.PortUtil))
	cfg.TraceSample = 5 * units.Microsecond
	r := Run(cfg)
	got := fmt.Sprintf("== qtrace DRILL seed=%d\n%sqtrace events=%d h=%016x\n", cfg.Seed, Fingerprint(r), sink.n, sink.h.Sum64())
	compareReference(t, "qtrace.txt", []byte(got))
}
