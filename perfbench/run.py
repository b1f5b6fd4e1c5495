#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The OCaml benchmark (perfbench/main.ml)
is built with dune from the checkout's sources, then run once; its report
is relayed to standard output, whose last line is the JSON result.  Build
output goes to standard error.  Exit status: 0 on a correct run, the
benchmark's own non-zero status on an output failure, 2 on a usage or
build error.  See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("compile-epfl", "design-sweep", "serve-steady", "lifetime-grid")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def run(cmd, timeout, **kw):
    """Run [cmd]; on timeout kill it, wait for it, and return None."""
    proc = subprocess.Popen(cmd, cwd=ROOT, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return None, None
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        print("perfbench: no dune-project at %s; run from a full checkout" % ROOT,
              file=sys.stderr)
        return 2
    # --cache=disabled: dune's shared cache lives outside the checkout
    rc, _ = run(["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/main.exe"],
                BUILD_TIMEOUT_S, stdout=sys.stderr)
    if rc != 0 or not os.path.isfile(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    rc, out = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    if rc is None:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 2
    sys.stdout.write(out)
    sys.stdout.flush()
    if rc != 0:
        return rc
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result line", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
