#!/usr/bin/env python3
"""Runs the ledger repeatedly and records every run as one JSON line.

    python3 bench/ledger/sweep.py --out runs.jsonl [--runs 10] [--seed0 1]
        [--workloads a,b] [--seconds T] [--trace 0|1]

Round i runs every workload once with seed seed0 + i, in BENCHMARK.json
order on even rounds and reversed on odd ones, so slow drift of the machine
does not land on one workload. Each line holds the workload, seed, trace
flag and the metric values of one run.py invocation; compare.py reads these
files. Run from the repository root.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    with open(args.out, "a") as out:
        for i in range(args.runs):
            seed = args.seed0 + i
            for w in (workloads if i % 2 == 0 else workloads[::-1]):
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", w,
                       "--seed", str(seed), "--seconds", repr(args.seconds),
                       "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                      text=True)
                if proc.returncode != 0:
                    print(f"{w} seed {seed}: run.py exited "
                          f"{proc.returncode}", file=sys.stderr)
                    return 1
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                record = {"workload": w, "seed": seed, "trace": args.trace,
                          "attempted": result["attempted"],
                          "failed": result["failed"],
                          "metrics": {k: v["value"] for k, v in
                                      result["metrics"].items()}}
                out.write(json.dumps(record) + "\n")
                out.flush()
                print(f"{w} seed {seed}: " + " ".join(
                    f"{k}={v:.6g}" for k, v in record["metrics"].items()),
                    file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
