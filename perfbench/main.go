// Command perfbench runs one DRILL simulator workload for a fixed host
// time and prints its end-to-end metrics (or, with -trace 1, its
// per-layer metrics) as one JSON object on the last line of stdout.
//
//	go build -o perfbench . && ./perfbench -workload leafspine-drill -seed 1 -seconds 20 -trace 0
//
// See README.md for the workloads, the metrics and what each should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// rep is one full simulation: setup, run through the drain, fold, check.
type rep struct {
	member int // index in the batch
	// setup and run are CPU time of the simulation thread (threadCPU);
	// wall is host wall time from setup through fold and check.
	setup, run, wall time.Duration
	rssMB            float64 // peak resident set during the rep
	out              outcome
	l                *layers // nil for untraced reps
	err              error
}

// doRep runs one rep. A panic anywhere in it is the rep's failure, not the
// benchmark's.
func doRep(w spec, seed int64, traced bool) (r rep) {
	defer func() {
		if p := recover(); p != nil {
			r.err = fmt.Errorf("panic: %v", p)
		}
	}()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	settle()
	if err := resetPeakRSS(); err != nil {
		r.err = err
		return r
	}
	if traced {
		r.l = &layers{rt0: readRuntime()}
	}
	t0, c0 := time.Now(), threadCPU()
	in := setup(w, seed, r.l)
	r.setup = threadCPU() - c0
	setupWall := time.Since(t0)
	var m0 memSample
	if traced {
		// The probe's CPU and GC cycles are not the rep's.
		before := readRuntime()
		probeControlPlane(in, r.l)
		r.l.rt0 = r.l.rt0.plus(readRuntime().minus(before))
		m0 = readMem()
	}
	r.run, r.wall = in.run()
	t1 := time.Now()
	r.out = in.fold()
	r.err = r.out.check(w)
	r.wall += setupWall + time.Since(t1)
	if rss, err := peakRSSMB(); err != nil {
		r.err = errors.Join(r.err, err)
	} else {
		r.rssMB = rss
	}
	if traced {
		m1 := readMem()
		r.l.runMallocs, r.l.runBytes = m1.mallocs-m0.mallocs, m1.bytes-m0.bytes
		r.l.rt1 = readRuntime()
		r.l.hops = in.net.Hops
		r.l.sched = in.s.Sched()
		r.l.poolGets, r.l.poolNews = in.net.Pool().Gets, in.net.Pool().News
		if in.obs != nil {
			if s := in.obs.Latest(); s != nil {
				r.l.snapshots = s.Seq
			}
		}
	}
	return r
}

// setupOnly times one setup in thread CPU time and discards the instance.
func setupOnly(w spec, seed int64) (d time.Duration, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	settle()
	c0 := threadCPU()
	setup(w, seed, nil)
	return threadCPU() - c0, nil
}

// settle returns the previous rep's heap to the OS so that no rep starts
// with another's garbage or GC pacing.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: leafspine-drill, fattree16-drill or fattree8-flap")
	seed := flag.Int64("seed", 1, "seed for the workload's flows and failures")
	seconds := flag.Float64("seconds", 20, "host seconds to measure for")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	w, err := specByName(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (%v)\n", err)
		flag.Usage()
		os.Exit(2)
	}
	res, digests := bench(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	for _, d := range digests {
		fmt.Println(d)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// batchSeed is the simulation seed of member j of the batch drawn from
// seed. A run simulates every member, so its medians span several traffic
// matrices instead of one seed's luck with heavy-tailed flow sizes.
func batchSeed(seed int64, j int) int64 { return seed*1000 + int64(j) }

// maxSetupPerRep caps the setup-only samples taken after each rep.
const maxSetupPerRep = 16

// bench measures workload w for about budget of host time. It simulates
// the batch's members in turn, at least once each and then while another
// member fits in the budget; a traced run simulates each member untraced
// and then traced. It returns the result and one digest line per batch
// member plus the batch digest.
//
// An untraced run also times setup alone after each rep, as often as fits
// in a tenth of the rep's wall time (none when one setup takes longer):
// a setup of a millisecond needs many samples for its median to repeat,
// and interleaving them with the reps spreads them over the same host
// minutes as the run-phase figures.
func bench(w spec, seed int64, budget time.Duration, traced bool) (result, []string) {
	start := time.Now()
	res := result{Metrics: map[string]metric{}}
	fail := func(what string, err error) {
		res.Failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s %s failed: %v\n", w.name, what, err)
	}

	var setups []time.Duration
	passes := []bool{false}
	if traced {
		passes = []bool{false, true}
	}
	texts := make([]string, w.batch)
	var reps []rep
	var last time.Duration
	for i := 0; i < w.batch || time.Since(start)+last <= budget; i++ {
		j := i % w.batch
		t0 := time.Now()
		for _, tr := range passes {
			r := doRep(w, batchSeed(seed, j), tr)
			r.member = j
			res.Attempted++
			if r.err == nil {
				if texts[j] == "" {
					texts[j] = r.out.digestText()
				} else if t := r.out.digestText(); t != texts[j] {
					r.err = fmt.Errorf("digest %q differs from this member's first %q", t, texts[j])
				}
			}
			if r.err != nil {
				fail(fmt.Sprintf("member %d", j), r.err)
				continue
			}
			setups = append(setups, r.setup)
			reps = append(reps, r)
			fmt.Fprintf(os.Stderr, "%s member %d traced=%v: setup %.4fs run %.3fs (cpu) wall %.3fs rss %.1fMB\n",
				w.name, j, tr, r.setup.Seconds(), r.run.Seconds(), r.wall.Seconds(), r.rssMB)
			if traced {
				continue
			}
			for n := min(maxSetupPerRep, int(r.wall/(10*max(r.setup, 1)))); n > 0; n-- {
				d, err := setupOnly(w, batchSeed(seed, j))
				if err != nil {
					res.Attempted++
					fail("setup", err)
					continue
				}
				setups = append(setups, d)
			}
		}
		last = time.Since(t0)
	}
	res.Correct = res.Failed == 0
	if traced {
		layerMetrics(res.Metrics, reps)
	} else {
		endToEnd(res.Metrics, w, reps, setups, res)
	}

	var lines []string
	h := sha256.New()
	for j, t := range texts {
		lines = append(lines, fmt.Sprintf("digest %s seed %d member %d: %s %s", w.name, seed, j, shortHash(t), t))
		fmt.Fprintln(h, t)
	}
	lines = append(lines, fmt.Sprintf("digest %s seed %d: %s", w.name, seed, hex.EncodeToString(h.Sum(nil)[:8])))
	return res, lines
}

// endToEnd fills m with the end-to-end metrics. The run-phase and wall
// figures are means over the batch of each member's median, so host noise
// is filtered per member and seed luck averages out across members;
// setup, which no seed changes, is the median of every sample. Setup and
// run are thread CPU time; wall_s is wall time.
func endToEnd(m map[string]metric, w spec, reps []rep, setups []time.Duration, res result) {
	pps := batchMean(w, reps, func(r rep) float64 { return float64(r.out.delivered) / r.run.Seconds() })
	wall := batchMean(w, reps, func(r rep) float64 { return r.wall.Seconds() })
	var su []float64
	for _, d := range setups {
		su = append(su, d.Seconds())
	}
	m["setup_s"] = metric{median(su), "s"}
	m["run_pkts_per_s"] = metric{pps, "pkt/s"}
	m["wall_s"] = metric{wall, "s"}
	m["peak_rss_mb"] = metric{batchMean(w, reps, func(r rep) float64 { return r.rssMB }), "MB"}
	m["run_ok_frac"] = metric{float64(res.Attempted-res.Failed) / float64(res.Attempted), "frac"}
}

// batchMean is the mean over batch members of each member's median of f.
func batchMean(w spec, reps []rep, f func(r rep) float64) float64 {
	by := make([][]float64, w.batch)
	for _, r := range reps {
		by[r.member] = append(by[r.member], f(r))
	}
	var sum float64
	n := 0
	for _, v := range by {
		if len(v) > 0 {
			sum += median(v)
			n++
		}
	}
	return sum / float64(max(n, 1))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
