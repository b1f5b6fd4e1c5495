#!/usr/bin/env python3
"""Run one workload over several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 1,2,3,4,5] [--seconds S]

--seconds defaults to run_seconds of BENCHMARK.json.  For every
end-to-end metric of the result line: the median over the runs and the
distance between the first and third quartiles (statistics.quantiles,
n=4) as a share of the median -- the steadiness figure each end-to-end
metric's bound in BENCHMARK.json is compared against.  Run from the root
of a checkout; each run goes through perfbench/run.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--seconds", default=None)
    args = ap.parse_args()
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            seconds = str(json.load(f)["run_seconds"])
    values = {}
    for seed in args.seeds.split(","):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", seed, "--seconds", seconds, "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(proc.stdout)
            print("seed %s: exit %d" % (seed, proc.returncode), file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %s: %s" % (seed, " ".join(
            "%s=%.6g" % (k, m["value"]) for k, m in result["metrics"].items())), flush=True)
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else 0.0
        print("%-24s median %14.6g  iqr/median %.4f  (n=%d)" % (name, med, spread, len(vs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
