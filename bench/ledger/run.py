#!/usr/bin/env python3
"""Build the layer ledger from source and run one workload of it.

    python3 bench/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The ledger and the qsimec libraries are
built into .bench_build/ledger (CMake, Release); the run works in a fresh
directory under .bench_build/work that is removed afterwards. The ledger's
own `name value unit` lines are echoed, and the last line of output is one
JSON object: {"correct", "attempted", "failed", "metrics"}, where metrics
holds the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1, a --traced ledger run). Exits non-zero, without that
line, if the build or the ledger fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "ledger")
LEDGER_TIMEOUT_S = 170


def build():
    """Configure (quick once cached) and let CMake rebuild what changed.

    bench/ledger/CMakeLists.txt adds the qsimec project from the checkout's
    root, so this fails where the sources are missing."""
    log = sys.stderr
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    try:
        subprocess.run(configure, check=True, stdout=log, stderr=log)
        subprocess.run(["cmake", "--build", BUILD, "--target", "ledger", "-j", jobs],
                       check=True, stdout=log, stderr=log)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"cannot build the ledger: {e}")
    return os.path.join(BUILD, "ledger")


def parse_metrics(stdout):
    """The ledger's `name value unit` lines as {name: (value, unit)}."""
    metrics = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and not line.startswith("#"):
            metrics[parts[0]] = (float(parts[1]), parts[2])
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    ledger = build()
    work = os.path.join(ROOT, ".bench_build", "work",
                        f"{args.workload}-{os.getpid()}")
    command = [ledger, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--dir", work]
    if args.trace:
        command.append("--traced")
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             timeout=LEDGER_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(run.stdout)
    sys.stderr.write(run.stderr)
    measured = parse_metrics(run.stdout)
    # 0: every verdict right; 1: a wrong verdict, reported if the run finished
    if run.returncode not in (0, 1) or "ledger.attempted" not in measured:
        sys.exit(f"ledger exited with {run.returncode} without a report")
    metrics = {}
    for metric in wanted:
        value, unit = measured[metric["name"]]
        if unit != metric["unit"]:
            sys.exit(f"{metric['name']}: ledger unit {unit}, BENCHMARK.json {metric['unit']}")
        metrics[metric["name"]] = {"value": value, "unit": unit}
    result = {
        "correct": run.returncode == 0 and measured["ledger.wrong"][0] == 0,
        "attempted": int(measured["ledger.attempted"][0]),
        "failed": int(measured["ledger.failed"][0]),
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
