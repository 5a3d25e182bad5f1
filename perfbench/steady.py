#!/usr/bin/env python3
"""Run the benchmark over several seeds and report how steady it is.

Usage, from the root of a checkout:

    python3 perfbench/steady.py [--seeds 1-10 | --seeds 1,1,2] [--workloads a,b] [--trace 0]
        [--values]

For every workload it runs perfbench/run.py once per seed (building the
driver first if needed), then prints failed/attempted checks and, for
each metric with its unit, the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them), the spread (q3 - q1) as a
share of the median, and the bound from BENCHMARK.json; a spread of at
least a third of the bound is flagged. Failed checks are reported too.
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


def parse_seeds(text):
    """'1-10' or a comma list such as '1,1,2' (a seed may repeat)."""
    if "," in text:
        return [int(s) for s in text.split(",")]
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--values", action="store_true",
                    help="also print every run's value, in seed order")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    for workload in args.workloads.split(","):
        values, units, shares, walls = {}, {}, set(), []
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
            start = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            walls.append(time.monotonic() - start)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            shares.add("%d/%d%s" % (
                result["failed"], result["attempted"],
                "" if proc.returncode == 0 else " exit %d" % proc.returncode))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print("%s: %d seeds, run wall %.1f-%.1f s, failed/attempted %s" % (
            workload, len(seeds), min(walls), max(walls), sorted(shares)))
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = (statistics.quantiles(vs, n=4) if len(vs) > 1
                         else (med, med, med))
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread >= bound / 3:
                flag = "  <-- spread >= bound/3"
            print("  %-28s %-9s median %-12.6g q1 %-12.6g q3 %-12.6g "
                  "spread %.4f%s%s" % (name, units[name], med, q1, q3, spread,
                            "" if bound is None else "  bound %.2f" % bound,
                            flag))
            if args.values:
                print("      " + " ".join("%.4g" % v for v in vs))


if __name__ == "__main__":
    main()
