#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 hlibench/spread.py --workloads compile serve --seeds 1-10

For every workload, runs hlibench/run.py once per seed, untraced, and
prints, per end-to-end metric, the median and the distance between the
first and third quartiles as a share of the median -- the steadiness test
BENCHMARK.json's bounds are checked against.  Quartiles are
statistics.quantiles(values, n=4).  A metric whose spread exceeds a third
of its bound is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-5"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads:
        values = {}
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print("%s seed %d failed:\n%s" % (workload, seed, out.stderr[-2000:]))
                return 1
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print("%s seed %d: incorrect" % (workload, seed))
                ok = False
            if list(result["metrics"]) != list(bounds):
                print("%s seed %d: metrics differ from BENCHMARK.json" % (workload, seed))
                ok = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print("== %s (%d seeds)" % (workload, len(args.seeds)))
        for name, vals in values.items():
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med] * 3
            spread = (q[2] - q[0]) / abs(med) if med else 0.0
            flag = ""
            if spread > bounds[name] / 3:
                flag = "  <-- above a third of the bound %.2f" % bounds[name]
            print("  %-28s median %14.6g  spread %6.3f%s" % (name, med, spread, flag))
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
