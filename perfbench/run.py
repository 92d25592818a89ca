#!/usr/bin/env python3
"""Build the perfbench binary from this checkout and run one workload.

    python3 perfbench/run.py --workload leafspine-drill --seed 1 --seconds 20 --trace 0

The binary is built from source into .bench_build/ at the checkout root,
with the Go build cache and temporary files kept there too. The last line
of stdout is the benchmark's JSON result; a failed build or run exits
non-zero without printing one.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "perfbench")


def go_env():
    dirs = {name: os.path.join(BUILD, name) for name in ("gocache", "tmp", "gopath", "home")}
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOCACHE=dirs["gocache"],
        GOTMPDIR=dirs["tmp"],
        GOPATH=dirs["gopath"],
        HOME=dirs["home"],
        XDG_CONFIG_HOME=dirs["home"],
    )
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("run.py: no go.mod at %s; run from a checkout of the simulator" % ROOT)
    build = subprocess.run(["go", "build", "-o", BIN, "."], cwd=HERE, env=go_env(),
                           stdout=sys.stderr, timeout=850)
    if build.returncode != 0:
        sys.exit("run.py: go build failed (exit %d)" % build.returncode)
    run = subprocess.run([BIN, "-workload", args.workload, "-seed", str(args.seed),
                          "-seconds", str(args.seconds), "-trace", str(args.trace)],
                         cwd=ROOT, timeout=175)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
