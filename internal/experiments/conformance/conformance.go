// Package conformance proves engine variants of the simulator equivalent:
// it extends a run's result fingerprint (experiments.Fingerprint) with the
// observation planes — trace counts and obs snapshots — and diffs
// fingerprints across engines. The sharded parallel engine
// (RunCfg.Shards) is held byte-identical to the sequential engine at every
// shard count by the tests in this package and by the nightly
// FuzzShardedVsSequential, and the sequential engine is held to the
// committed golden corpus in testdata/golden.
package conformance

import (
	"fmt"
	"strings"

	"drill/internal/experiments"
	"drill/internal/obs"
	"drill/internal/trace"
	"drill/internal/units"
)

// Options selects the instrumentation attached to every engine variant of
// a diffed cell, so the comparison covers the observation planes too.
type Options struct {
	// Trace attaches a counting tracer restricted to the sampler kinds
	// (the only kinds a sharded run may enable) plus a 20µs trace sampler,
	// and appends per-kind event counts to the fingerprint.
	Trace bool
	// Obs attaches a metrics registry with a 50µs snapshotter and appends
	// the final snapshot (scrubbed of order-dependent histogram sums) to
	// the fingerprint.
	Obs bool
}

// TraceLine renders a tracer's accepted-event counts per kind.
func TraceLine(tr *trace.Tracer) string {
	var b strings.Builder
	b.WriteString("trace")
	for k := trace.Kind(0); k < trace.NumKinds; k++ {
		fmt.Fprintf(&b, " %s=%d", k, tr.Count(k))
	}
	b.WriteByte('\n')
	return b.String()
}

// ObsLines renders an obs snapshot: capture time and every series' value,
// with histograms expanded to exact bucket counts and their float Sum
// omitted (it accumulates by CAS in observation order, the one obs
// quantity that is a multiset's running float sum rather than an integer
// or a pointwise read).
func ObsLines(s *obs.Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "obs t=%d\n", int64(s.SimTime))
	for i := range s.Points {
		p := &s.Points[i]
		if p.Hist != nil {
			fmt.Fprintf(&b, "%s{%s} count=%d buckets=%v\n", p.Name, p.Labels, p.Hist.Count, p.Hist.Buckets)
			continue
		}
		fmt.Fprintf(&b, "%s{%s} %g\n", p.Name, p.Labels, p.Value)
	}
	return b.String()
}

// FingerprintCfg executes one engine variant of cfg with opt's
// instrumentation freshly attached and returns its full fingerprint.
func FingerprintCfg(cfg experiments.RunCfg, opt Options) string {
	_, fp := run(cfg, opt)
	return fp
}

// run is FingerprintCfg that also returns the run's result.
func run(cfg experiments.RunCfg, opt Options) (*experiments.RunResult, string) {
	var tr *trace.Tracer
	if opt.Trace {
		tr = trace.New(nil, trace.WithKinds(trace.QueueSample, trace.PortUtil))
		cfg.Tracer = tr
		cfg.TraceSample = 20 * units.Microsecond
	}
	var reg *obs.Registry
	if opt.Obs {
		reg = obs.NewRegistry(8)
		cfg.Obs = reg
		cfg.ObsScope = `conf="cell"`
		cfg.ObsSample = 50 * units.Microsecond
	}
	res := experiments.Run(cfg)
	fp := experiments.Fingerprint(res)
	if tr != nil {
		fp += TraceLine(tr)
	}
	if reg != nil {
		fp += ObsLines(reg.Latest())
	}
	return res, fp
}

// Diff runs cfg on the sequential engine and on the sharded engine at each
// of shardCounts, and returns one report per diverging variant (empty
// means every variant was byte-identical). cfg.Shards is overridden per
// variant; instrumentation objects must not be pre-attached to cfg — pass
// them through opt so every variant gets a fresh set.
func Diff(cfg experiments.RunCfg, shardCounts []int, opt Options) []string {
	if cfg.Tracer != nil || cfg.Obs != nil {
		panic("conformance: attach instrumentation via Options, not RunCfg")
	}
	seq := cfg
	seq.Shards = 0
	want := FingerprintCfg(seq, opt)
	var diffs []string
	for _, n := range shardCounts {
		v := cfg
		v.Shards = n
		if got := FingerprintCfg(v, opt); got != want {
			diffs = append(diffs, fmt.Sprintf("shards=%d diverges from sequential:\n--- sequential\n%s--- shards=%d\n%s",
				n, want, n, got))
		}
	}
	return diffs
}
