#!/usr/bin/env python3
"""Two-set steadiness check for the benchmark in BENCHMARK.json.

Runs the benchmark command on every workload once per seed, for two
sets of ten seeds on the same build, and prints per workload and
end-to-end metric both medians, both spreads (interquartile range as a
share of the median) and whether the sets agree within the metric's
bound: each spread within the bound, and the second median not worse
than the first by more than the bound.  The last column is the median
share of host CPU time stolen by other guests during each set's runs
(from the result files), the main source of spread on virtual
machines.  Exits 1 when any row disagrees.

    python3 perfbench/steady.py
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = 2
SEEDS = 10


def run_once(spec, workload, seed):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: wrong verdicts: {result}")
    record = os.path.join(ROOT, "perfbench", "_work", "results",
                          f"{workload}-seed{seed}-trace0.json")
    with open(record) as f:
        steal = json.load(f)["cpu_steal_frac"]
    return {k: v["value"] for k, v in result["metrics"].items()}, steal


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse(first, second, better):
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for w in (w["name"] for w in spec["workloads"]):
        sets, steals = [], []
        for s in range(SETS):
            runs = [run_once(spec, w, seed)
                    for seed in range(1 + s * SEEDS, 1 + (s + 1) * SEEDS)]
            sets.append({m["name"]: [r[m["name"]] for r, _ in runs]
                         for m in spec["end_to_end"]})
            steals.append(statistics.median(st for _, st in runs))
        print(f"{w}  (host steal, median per set: "
              + "  ".join(f"{st:.1%}" for st in steals) + ")")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds = [statistics.median(s[name]) for s in sets]
            spreads = [spread(s[name]) for s in sets]
            agree = (all(sp <= bound for sp in spreads)
                     and worse(meds[0], meds[1], m["better"]) <= bound)
            ok = ok and agree
            cells = "  ".join(f"median {md:10.4f} {m['unit']:<3} iqr {sp:6.1%}"
                              for md, sp in zip(meds, spreads))
            print(f"  {name:<12} {cells}  bound {bound:.0%}  "
                  f"{'agree' if agree else 'DISAGREE'}"
                  f"{'  (spread > bound/3)' if max(spreads) > bound / 3 else ''}")
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
