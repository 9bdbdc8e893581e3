#!/usr/bin/env python3
"""Perf-ledger entry point: builds the ledger binaries and runs one workload.

    python3 bench/ledger/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the repository root. The first call configures and builds
.bench_build/ledger (CMake, Release); later calls reuse it. The last line of
stdout is one JSON object:

    {"correct": true, "attempted": A, "failed": F, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json's "end_to_end"
list from one untraced bench_ledger process (4 fresh database instances,
each set up, warmed up for 1 s and measured for T/4 s). --trace 1 reports
its "per_layer" list: the ledger_probes layer timings, plus an untraced and
a traced bench_ledger process of one instance and T/2 s each
(obs.trace_overhead is the ratio of their p50 latencies). The line
before the last carries the full detail of every process. Exits non-zero,
printing no result, when the build fails, a process fails, or a
correctness check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "ledger"
BUILD_TIMEOUT_S = 800
RUN_BUDGET_S = 170
INSTANCES = 4


def log(msg):
    print(f"[ledger] {msg}", file=sys.stderr, flush=True)


def build(env):
    cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
           "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr, env=env,
                   timeout=BUILD_TIMEOUT_S)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs], check=True,
                   stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)


def run_binary(argv, env, deadline):
    """Runs one ledger binary; returns its last stdout line as JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("run budget exhausted")
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, env=env,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{Path(argv[0]).name} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{Path(argv[0]).name} printed no result")
    return json.loads(lines[-1])


def ledger_argv(args, seconds, instances, trace):
    argv = [str(BUILD / "bench_ledger"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", repr(seconds),
            "--instances", str(instances)]
    return argv + (["--trace"] if trace else [])


def pick(values, declared, where):
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"{where} lacks metrics {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise RuntimeError(f"unknown workload {args.workload}")
    # Compiler and tool temporaries stay inside the checkout.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "TMPDIR": str(tmp)}
    build(env)
    deadline = time.monotonic() + RUN_BUDGET_S

    if args.trace == 0:
        run = run_binary(ledger_argv(args, args.seconds, INSTANCES, False),
                         env, deadline)
        detail = {"e2e": run}
        metrics = pick(run["metrics"], spec["end_to_end"], "bench_ledger")
        attempted, failed = run["attempted"], run["failed"]
    else:
        half = args.seconds / 2
        probes = run_binary([str(BUILD / "ledger_probes"), "--workload",
                             args.workload, "--seed", str(args.seed)],
                            env, deadline)
        plain = run_binary(ledger_argv(args, half, 1, False), env, deadline)
        traced = run_binary(ledger_argv(args, half, 1, True), env, deadline)
        values = {**probes["probes"], **traced["layers"]}
        values["obs.trace_overhead"] = (traced["metrics"]["p50_us"] /
                                        plain["metrics"]["p50_us"])
        detail = {"probes": probes, "untraced": plain, "traced": traced}
        metrics = pick(values, spec["per_layer"], "layer run")
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]

    print(json.dumps(detail))
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"error: {e}")
        sys.exit(1)
