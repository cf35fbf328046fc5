#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports, per workload and
end-to-end metric, the median and the quartile spread (q3 - q1 over the
median, statistics.quantiles n=4) against the metric's bound in
BENCHMARK.json. A spread above a third of its bound, setup_s included, is
flagged and makes the exit code 1, as does a failed or incorrect run.

    python3 perfbench/spread.py [--workloads NAME,...] [--seeds 10]
                                [--first-seed 1] [--trace 0]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import pbstats  # noqa: E402


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            r = subprocess.run(["python3", os.path.join(HERE, "run.py"), "--workload", workload,
                                "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                                "--trace", str(args.trace)],
                               cwd=ROOT, capture_output=True, text=True)
            lines = r.stdout.strip().splitlines()
            if r.returncode != 0 or not lines:
                print("%s seed %d: exit %d\n%s" % (workload, seed, r.returncode, r.stderr[-2000:]))
                return 1
            runs.append(json.loads(lines[-1]))
        ok = all(r["correct"] and r["failed"] == 0 for r in runs)
        print("%s: %d runs, all correct with no failed operations: %s" % (workload, len(runs), ok))
        steady = steady and ok
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            spread = pbstats.relative_spread(values) if len(values) > 1 else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  above a third of its bound"
                steady = False
            print("  %-34s median %14.6g  spread %.3f  bound %s%s"
                  % (name, statistics.median(values), spread, bound, flag))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
