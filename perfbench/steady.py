#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

    python3 perfbench/steady.py                      # every workload, seeds 1 and 2, 3 runs each
    python3 perfbench/steady.py --workloads explore-lenet --seeds 1-10 --runs 1

Runs each workload repeatedly through perfbench/run.py (from the root of
a source tree), then prints, for every end-to-end metric of
BENCHMARK.json, its spread over all runs (the distance between the first
and third quartile as a share of the median) and the shift between the
medians of the first and the last seed (with two or more runs per seed),
each against the metric's bound.
A spread above a third of the bound is marked "unsteady"; above the
bound, or a shift above the bound, "FAIL" (setup_s is held only to the
shift rule).  Exits 1 on any FAIL or any incorrect run.
"""
import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    ok = out.returncode == 0 and result.get("correct") is True
    return ok, {k: v["value"] for k, v in result.get("metrics", {}).items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def shift(first, last, better):
    m0, m1 = statistics.median(first), statistics.median(last)
    if not m0:
        return 0.0
    worse = (m1 - m0) if better == "lower" else (m0 - m1)
    return abs(worse) / m0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="all")
    ap.add_argument("--seeds", default="1,2")
    ap.add_argument("--runs", type=int, default=3, help="runs per seed")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads != "all":
        names = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    bad = False
    for workload in names:
        by_seed = {s: [] for s in seeds}
        # interleave seeds so host drift hits every seed alike
        for _ in range(args.runs):
            for s in seeds:
                ok, values = run_once(bench, workload, s)
                if not ok:
                    print(f"{workload} seed {s}: run not correct")
                    bad = True
                by_seed[s].append(values)
                print(f"{workload} seed {s}: " + ", ".join(
                    f"{k}={v:.5g}" for k, v in values.items()), flush=True)
        runs = [v for s in seeds for v in by_seed[s]]
        print(f"\n{workload}: {len(runs)} runs, seeds {args.seeds}")
        print(f"  {'metric':18} {'median':>12} {'spread':>8} {'shift':>8} {'bound':>6}  verdict")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            vals = [r[name] for r in runs if name in r]
            first = [r[name] for r in by_seed[seeds[0]] if name in r]
            last = [r[name] for r in by_seed[seeds[-1]] if name in r]
            if len(vals) < len(runs) or len(vals) < 2:
                print(f"  {name:18} missing from some runs")
                bad = True
                continue
            sp = spread(vals)
            # a shift between single runs is noise, not a seed effect
            sh = shift(first, last, m["better"]) if len(seeds) > 1 and args.runs > 1 else 0.0
            verdict = "ok"
            if name != "setup_s" and sp > bound / 3:
                verdict = "unsteady"
            if (name != "setup_s" and sp > bound) or sh > bound:
                verdict = "FAIL"
                bad = True
            print(f"  {name:18} {statistics.median(vals):12.5g} {sp:8.3f} {sh:8.3f} {bound:6.2f}  {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
