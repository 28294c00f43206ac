#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs every workload of BENCHMARK.json once per seed, ten seeds per set, in
two independent sets, and reports for each end-to-end metric its median,
its quartiles and its spread (quartile distance over median, the figure the
acceptance rule compares with the metric's bound), plus how far the second
set's median moved from the first's. A spread or a move over the metric's
bound is flagged OVER BOUND.

    python3 e2ebench/steadiness.py [--json OUT]

Run it from the repository root. It uses the command and run_seconds of
BENCHMARK.json, so it measures exactly what an outside runner measures.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SETS = 2
SEEDS = 10


def run_once(command, workload, seed, seconds, trace=0):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs incorrect\n{proc.stderr[-2000:]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf")}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--json", default="")
    opts = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]

    report = {}
    for w in names:
        sets = []
        for s in range(SETS):
            seeds = range(1000 * (s + 1), 1000 * (s + 1) + SEEDS)
            runs = [run_once(bench["command"], w, seed, seconds) for seed in seeds]
            summary = {m: summarize([r[m] for r in runs]) for m in bounds}
            for m in bounds:
                summary[m]["values"] = [r[m] for r in runs]
            sets.append(summary)
        report[w] = sets
        print(f"\n{w}")
        for m, bound in bounds.items():
            first = sets[0][m]["median"]
            cells = []
            over = False
            for st in sets:
                moved = (st[m]["median"] - first) / first if first else 0.0
                over |= st[m]["spread"] > bound or moved > bound
                cells.append(f"med {st[m]['median']:.6g} [{st[m]['q1']:.6g}, {st[m]['q3']:.6g}]"
                             f" spread {st[m]['spread']:.3f} moved {moved:+.3f}")
            flag = "  OVER BOUND" if over else ""
            print(f"  {m:<14} bound {bound:<5} " + " | ".join(cells) + flag)
    if opts.json:
        with open(opts.json, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
