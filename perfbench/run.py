#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

The first call configures and builds `perfbench` (the library sources plus
perfbench/src) in Release under .bench_build/; later calls rebuild only
what changed. Build output goes to standard error, and so does the
benchmark binary's summary. The last line of standard output is the result
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

BENCHMARK.json is the one list of metrics: the binary's metric names and
units are checked against its "end_to_end" list for --trace 0 and its
"per_layer" list for --trace 1. An untraced run must report every
end-to-end metric. A traced run reports the per-layer metrics of the layers
its workload reaches (it fails when one of them recorded no span or
sample); the per-layer metrics of the other workloads read 0.
Trace files and run records land in .bench_build/results/.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
RESULTS_DIR = os.path.join(BUILD_DIR, "results")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# A run measures --seconds plus set-up, warm-up and checks, and must end
# within 180 s, so a hung run is stopped before that.
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    compile_cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                   "-j", BUILD_JOBS]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def commit_id():
    """The git commit when the checkout is a git work tree, else unknown."""
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        if (git.returncode == 0 and len(lines) == 2 and
                os.path.realpath(lines[0]) == os.path.realpath(".")):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail("unknown workload %r; expected one of %s" %
             (args.workload, ", ".join(workloads)))
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", RESULTS_DIR, "--commit", commit_id()]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if run.returncode != 0:
        fail("benchmark exited with %d" % run.returncode)

    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed no result")
    result = json.loads(lines[-1])
    declared = {m["name"]: m["unit"] for m in
                spec["per_layer" if args.trace == "1" else "end_to_end"]}
    metrics = result["metrics"]
    undeclared = sorted(name for name, metric in metrics.items()
                        if declared.get(name) != metric["unit"])
    if undeclared:
        fail("metrics not declared in BENCHMARK.json with these units: %s"
             % undeclared)
    missing = sorted(set(declared) - set(metrics))
    if args.trace == "0" and missing:
        fail("end-to-end metrics missing: %s" % missing)
    for name in missing:
        metrics[name] = {"value": 0, "unit": declared[name]}
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
