package conformance

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
	"strings"
	"testing"

	"drill/internal/experiments"
	"drill/internal/trace"
	"drill/internal/units"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current engine")

// goldenFingerprints is the committed record of the golden cells'
// fingerprints on the sequential engine. It pins the simulator against
// history, where the sharded-vs-sequential diffs only pin the engines
// against each other: a change that moves any result of any cell — an FCT
// sample, a drop, an event count, a trace sample — fails here and must be
// re-recorded with -update as a named behaviour change.
const goldenFingerprints = "testdata/golden/fingerprints.txt"

const goldenHeader = `# Conformance fingerprints of the golden cells on the sequential engine.
# Floats are printed with %g. Any diff is a behaviour change: name it in
# CHANGES.md, then re-record with
#   go test ./internal/experiments/conformance -run TestGoldenFingerprints -update
`

// The Cells() entries the instrumented golden sections and the traced/obs
// conformance diffs share.
const (
	tracedCell = 1 // ECMP seed 2: moderate load, no failures
	obsCell    = 3 // DRILL seed 102
)

type goldenCell struct {
	name string
	cfg  experiments.RunCfg
	opt  Options
}

// goldenCells is the corpus: every conformance cell uninstrumented, plus
// the traced and the obs cell with the instrumentation their sharded diffs
// attach.
func goldenCells() []goldenCell {
	cells := Cells()
	var out []goldenCell
	for i, c := range cells {
		out = append(out, goldenCell{fmt.Sprintf("cell %d %s seed=%d", i, c.Scheme.Name, c.Seed), c, Options{}})
	}
	return append(out,
		goldenCell{fmt.Sprintf("cell %d traced", tracedCell), cells[tracedCell], Options{Trace: true}},
		goldenCell{fmt.Sprintf("cell %d obs", obsCell), cells[obsCell], Options{Obs: true}})
}

// qtraceCell is the Fig. 2/3 qtrace shape: DRILL at load 0.8 with the
// queue-depth and port-utilization sampler running every 5µs.
func qtraceCell() experiments.RunCfg {
	sc, _ := experiments.SchemeByName("DRILL")
	return experiments.RunCfg{
		Topo: confTopo, Scheme: sc, Seed: 23, Load: 0.8,
		Warmup:  100 * units.Microsecond,
		Measure: 400 * units.Microsecond,
	}
}

// hashSink folds every trace event's fields into an FNV-64a hash in
// emission order.
type hashSink struct {
	h   hash.Hash64
	n   int64
	buf [8]byte
}

func (s *hashSink) Emit(ev trace.Event) {
	s.n++
	for _, v := range [...]uint64{uint64(ev.T), uint64(ev.Run), uint64(ev.Kind), uint64(ev.Hop),
		uint64(ev.Port), ev.Flow, uint64(ev.Seq), uint64(ev.Size), uint64(ev.QLen), math.Float64bits(ev.Val)} {
		binary.LittleEndian.PutUint64(s.buf[:], v)
		s.h.Write(s.buf[:])
	}
}

func (s *hashSink) Close() error { return nil }

// qtraceFingerprint runs cfg with the sampler kinds traced and renders the
// result fingerprint, the event count, and a hash over every event —
// event-for-event identity of the sampled stream (~1.8M events, too many
// for a ring) without committing the stream itself.
func qtraceFingerprint(cfg experiments.RunCfg) (*experiments.RunResult, string) {
	sink := &hashSink{h: fnv.New64a()}
	cfg.Tracer = trace.New(sink, trace.WithKinds(trace.QueueSample, trace.PortUtil))
	cfg.TraceSample = 5 * units.Microsecond
	res := experiments.Run(cfg)
	return res, experiments.Fingerprint(res) + fmt.Sprintf("qtrace events=%d h=%016x\n", sink.n, sink.h.Sum64())
}

// renderGolden runs the whole corpus. Every run must also get real reuse
// out of the packet pool: pooling is on in every cell, so a recycling
// site that stopped returning packets shows here even though the
// fingerprint records only the pool's draw count.
func renderGolden(t *testing.T) []byte {
	var b bytes.Buffer
	b.WriteString(goldenHeader)
	section := func(name string, res *experiments.RunResult, fp string) {
		if res.PacketGets == 0 || res.PacketAllocs >= res.PacketGets {
			t.Errorf("%s: pooling avoided nothing (allocs=%d gets=%d)", name, res.PacketAllocs, res.PacketGets)
		}
		fmt.Fprintf(&b, "== %s\n%s", name, fp)
	}
	for _, c := range goldenCells() {
		res, fp := run(c.cfg, c.opt)
		section(c.name, res, fp)
	}
	q := qtraceCell()
	res, fp := qtraceFingerprint(q)
	section(fmt.Sprintf("qtrace DRILL seed=%d", q.Seed), res, fp)
	return b.Bytes()
}

// TestGoldenFingerprints reruns the corpus and compares it with the
// committed record. Run with -update to rewrite the record after an
// intended behaviour change.
func TestGoldenFingerprints(t *testing.T) {
	got := renderGolden(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenFingerprints), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFingerprints, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenFingerprints)
	if err != nil {
		t.Fatalf("%v (record it with go test ./internal/experiments/conformance -run TestGoldenFingerprints -update)", err)
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
			t.Fatalf("fingerprints differ from %s at line %d (%s):\n got: %s\nwant: %s",
				goldenFingerprints, i+1, section, gl[i], wl[i])
		}
	}
	t.Fatalf("fingerprints differ from %s in length: got %d lines, want %d", goldenFingerprints, len(gl), len(wl))
}
