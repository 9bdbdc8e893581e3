#!/usr/bin/env python3
"""Compares two sets of ledger runs against BENCHMARK.json's bounds.

    python3 bench/ledger/compare.py A.jsonl [B.jsonl]

A and B are sweep.py outputs: A is the parent (or first set), B the change
(or second set). For every (metric, workload) the report gives each side's
median and quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median, then a verdict:

  regression   B's median is worse than A's by more than the metric's bound
  gain         B wins at least 9 of 10 pairs (runs paired by seed, else by
               order; ties count for neither side) and the medians differ by
               more than A's interquartile distance
  unresolved   A's spread exceeds the bound and not every B run is better
               than every A run
  same         none of the above: within the bound

Per-layer metrics (no bound) get the gain test and "-" otherwise. With only
A, the report shows A's spread against each bound ("unsteady" when above).
Exits 1 when any end-to-end metric regresses or is unsteady.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load(path):
    runs = defaultdict(list)  # (workload, metric) -> [(seed, value)]
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        r = json.loads(line)
        for name, value in r["metrics"].items():
            runs[(r["workload"], name)].append((r["seed"], value))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def better(a, b, direction):
    """True when value b is strictly better than value a."""
    return b > a if direction == "higher" else b < a


def pairs(a, b):
    seeds_b = dict(b)
    if all(s in seeds_b for s, _ in a):
        return [(va, seeds_b[s]) for s, va in a]
    return list(zip([v for _, v in a], [v for _, v in b]))


def verdict(metric, a, b):
    direction, bound = metric["better"], metric.get("bound")
    va, vb = [v for _, v in a], [v for _, v in b]
    q1a, meda, q3a = quartiles(va)
    _, medb, _ = quartiles(vb)
    paired = pairs(a, b)
    won = [better(x, y, direction) for x, y in paired if x != y]
    if won and sum(won) >= 0.9 * len(paired) and abs(medb - meda) > q3a - q1a:
        return "gain"
    if bound is None:
        return "-"
    worse = (meda - medb) if direction == "higher" else (medb - meda)
    if meda != 0 and worse / abs(meda) > bound:
        return "regression"
    spread = (q3a - q1a) / meda if meda else 0
    all_better = all(better(x, y, direction) for x in va for y in vb)
    if spread > bound and not all_better:
        return "unresolved"
    return "same"


def fmt(values):
    q1, med, q3 = quartiles(values)
    spread = (q3 - q1) / med if med else 0
    return f"{med:12.6g} [{q1:.6g}, {q3:.6g}] {100 * spread:5.1f}%"


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    e2e = {m["name"] for m in spec["end_to_end"]}
    sets = [load(p) for p in argv[1:]]
    workloads = [w["name"] for w in spec["workloads"]]
    bad = False
    header = f"{'workload':17} {'metric':30} {'bound':>6}  A median [Q1, Q3] spread"
    if len(sets) == 2:
        header += "  |  B median [Q1, Q3] spread  |  delta  verdict"
    print(header)
    for w in workloads:
        for name, m in metrics.items():
            a = sets[0].get((w, name))
            if not a:
                continue
            va = [v for _, v in a]
            bound = m.get("bound")
            line = (f"{w:17} {name:30} "
                    f"{'-' if bound is None else format(bound, '.2f'):>6}  "
                    f"{fmt(va)}")
            if len(sets) == 1:
                q1, med, q3 = quartiles(va)
                # setup_s is exempt: its spread is not held to the bound.
                if (bound is not None and name != "setup_s" and med
                        and (q3 - q1) / med > bound):
                    line += "  unsteady"
                    bad = bad or name in e2e
            else:
                b = sets[1].get((w, name))
                if not b:
                    continue
                vb = [v for _, v in b]
                meda, medb = quartiles(va)[1], quartiles(vb)[1]
                delta = (medb - meda) / meda if meda else 0
                result = verdict(m, a, b)
                bad = bad or (result == "regression" and name in e2e)
                line += f"  |  {fmt(vb)}  |  {100 * delta:+6.1f}%  {result}"
            print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
