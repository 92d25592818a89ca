#!/usr/bin/env python3
"""Run the benchmark on several seeds per workload and report its noise.

    python3 perfbench/stability.py --seeds 10 --out set1.md
    python3 perfbench/stability.py --seeds 10 --out set2.md --against set1.json

Each run is the BENCHMARK.json command with seeds 1..N on every workload,
untraced, for run_seconds, one at a time (never in parallel, so runs do
not compete for CPUs). For every workload and metric the
report gives the median, the quartiles (statistics.quantiles(values, n=4))
and IQR/median next to the metric's bound. With --against, it also gives
each median's shift in the worse direction against an earlier set of
runs, and counts the seeds whose batch digest differs. Raw results go to
a JSON file next to the report.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    t0 = time.monotonic()
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    took = time.monotonic() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit("stability.py: %s seed %d failed (exit %d):\n%s" % (workload, seed, p.returncode, p.stderr))
    # The batch digest is the last digest line.
    digest = [l for l in lines if l.startswith("digest ")][-1]
    return {"seed": seed, "seconds": took, "digest": digest, "result": json.loads(lines[-1])}


def host():
    model = "unknown model"
    try:
        with open("/proc/cpuinfo") as f:
            model = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), model)
    except OSError:
        pass
    return "%d CPUs (%s)" % (os.cpu_count(), model)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--against", default="", help="raw JSON of an earlier set to compare medians and digests with")
    ap.add_argument("--out", default="", help="markdown report path (default: stdout only)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    prev = {}
    if args.against:
        with open(args.against) as f:
            prev = json.load(f)

    raw = {}
    for name in names:
        raw[name] = []
        for seed in range(1, args.seeds + 1):
            r = run_once(bench, name, seed)
            raw[name].append(r)
            res = r["result"]
            print("%s seed %d: %.1fs correct=%s attempted=%d failed=%d" % (
                name, seed, r["seconds"], res["correct"], res["attempted"], res["failed"]), file=sys.stderr)

    head = "| workload | metric | unit | median | q1 | q3 | IQR/median | bound |"
    if prev:
        head += " earlier median | worse by |"
    out = ["%d seeds per workload (1..%d), run_seconds %d, %s, %s.\n" % (
        args.seeds, args.seeds, bench["run_seconds"], host(), time.strftime("%Y-%m-%d")),
        head, "|" + "---|" * (head.count("|") - 1)]
    for name in names:
        for m in metrics:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in raw[name]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            row = "| %s | %s | %s | %.6g | %.6g | %.6g | %.4f | %s |" % (
                name, m["name"], m["unit"], med, q1, q3, (q3 - q1) / med if med else float("nan"),
                "%.2f" % m["bound"])
            if prev:
                pv = [r["result"]["metrics"][m["name"]]["value"] for r in prev.get(name, [])]
                if len(pv) >= 2:
                    pmed = statistics.median(pv)
                    worse = (med - pmed) / pmed if m["better"] == "lower" else (pmed - med) / pmed
                    row += " %.6g | %.4f |" % (pmed, worse)
                else:
                    row += " - | - |"
            out.append(row)
    out.append("\nBatch digests:\n")
    for name in names:
        for r in raw[name]:
            out.append("    " + r["digest"])
    if prev:
        before = {(n, r["seed"]): r["digest"] for n, rs in prev.items() for r in rs}
        diff = [(n, r["seed"]) for n in names for r in raw[n]
                if (n, r["seed"]) in before and before[(n, r["seed"])] != r["digest"]]
        same = sum(1 for n in names for r in raw[n] if (n, r["seed"]) in before) - len(diff)
        out.append("\nAgainst the earlier set: %d digests identical, %d differ %s" % (same, len(diff), diff or ""))
    report = "\n".join(out) + "\n"
    print(report)
    if args.out:
        with open(args.out, "w") as f:
            f.write(report)
        with open(os.path.splitext(args.out)[0] + ".json", "w") as f:
            json.dump(raw, f, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
