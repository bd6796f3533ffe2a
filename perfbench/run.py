#!/usr/bin/env python3
"""Build and run the host-time benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sim-router --seed 1 --seconds 30 --trace 0

It builds the benchmark (a Go module of its own that imports the
repository's packages) into .bench_build/ at the repository root, with the
Go build cache there too, then runs it. The benchmark's last line of
standard output is its JSON result; the exit code is the benchmark's.
See README.md beside this file for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

# The benchmark bounds itself at 170 s; this is the backstop.
RUN_TIMEOUT_S = 178


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="sim-router, sim-nat-churn, wire-mirror, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = os.path.join(root, ".bench_build")
    os.makedirs(os.path.join(out, "tmp"), exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOTMPDIR": os.path.join(out, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOPROXY": "off",
    })
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        cmd += ["--spans", os.path.join(
            out, f"spans-{args.workload}-seed{args.seed}.json")]
    try:
        run = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its time bound", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
