#!/usr/bin/env python3
"""Steadiness check: run each workload N times and report each metric's spread.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --save set1.json
    python3 perfbench/steady.py --runs 10 --first-seed 1001 --compare set1.json

Each run uses its own seed (first-seed, first-seed+1, ...). For every
end-to-end metric the table shows the median, the quartiles, the
quartile spread (Q3-Q1)/median as statistics.quantiles(values, n=4)
gives it, the largest relative spread (max-min)/median, and each run's
value.

Flags, for every end-to-end metric, setup_s included:
  OVER BOUND        the quartile spread exceeds the metric's bound in
                    BENCHMARK.json (the steadiness rule a benchmark must
                    meet); the exit code becomes 1.
  over bound/3      the quartile spread exceeds a third of the bound, the
                    margin a steady benchmark keeps.
  range over bound  the largest relative spread exceeds the bound: one
                    run lies far from the rest. Reported, not fatal: over
                    ten runs a single slow spell of the host sets the
                    range of a p99.

--save writes each workload's medians to a JSON file. --compare reads
such a file from an earlier set and reports how far each median moved;
a median worse than the earlier one by more than the bound is flagged
MEDIAN SHIFT and makes the exit code 1. The exit code is also 1 if any
run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        return None
    return json.loads(lines[-1])


def worse_by(before, after, better):
    """How much worse after is than before, as a share of before."""
    if not before:
        return 0.0
    change = (after - before) / abs(before)
    return -change if better == "higher" else change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable); default all")
    ap.add_argument("--save", help="write each workload's medians to this JSON file")
    ap.add_argument("--compare", help="medians of an earlier set (a --save file) to compare against")
    args = ap.parse_args()

    e2e = {m["name"]: m for m in spec["end_to_end"]}
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    failed = False
    medians = {}
    for wl in workloads:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            out = run_once(wl, seed, args.seconds)
            if out is None or not out["correct"]:
                print(f"{wl} seed {seed}: run failed", flush=True)
                failed = True
                continue
            for name, m in out["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed}: ok", flush=True)
        print(f"\n{wl}: {args.runs} runs")
        header = f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'range/med':>9} {'bound':>6}"
        if wl in earlier:
            header += f" {'worse_vs_prev':>13}"
        print(header)
        medians[wl] = {}
        for name in sorted(values):
            v = values[name]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            medians[wl][name] = med
            spread = (q3 - q1) / abs(med) if med else 0.0
            rng = (max(v) - min(v)) / abs(med) if med else 0.0
            m = e2e.get(name)
            bound = m["bound"] if m else None
            flags = []
            if bound is not None:
                if spread > bound:
                    flags.append("OVER BOUND")
                    failed = True
                elif spread > bound / 3:
                    flags.append("over bound/3")
                if rng > bound:
                    flags.append("range over bound")
            line = (f"{name:34} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} {rng:9.4f} "
                    f"{'' if bound is None else bound:>6}")
            prev = earlier.get(wl, {}).get(name)
            if prev is not None and m is not None:
                worse = worse_by(prev, med, m["better"])
                line += f" {worse:13.4f}"
                if worse > bound:
                    flags.append("MEDIAN SHIFT")
                    failed = True
            print(line + " " + ", ".join(flags))
            print("    " + " ".join(f"{x:.5g}" for x in v))
        print(flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(medians, f, indent=1, sort_keys=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
