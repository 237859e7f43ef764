#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload olap_join --seed 1 --seconds 30 --trace 0

Builds perfeval's libraries and the benchmark binary from source (CMake,
Release) into .bench_build/perfbench under the repository root, then runs
the binary. Every line it prints is passed through; the last stdout line is
one JSON object with "correct", "attempted", "failed" and "metrics". With
--trace 0 the metrics are the end_to_end metrics of BENCHMARK.json, with
--trace 1 the per_layer ones; a run whose metric names differ from
BENCHMARK.json fails.

Exit status: 0 when the run passed every check, 1 when a check failed or
the benchmark could not be built or run, 2 on a usage error.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("olap_join", "scan_shard", "htap_write")
# A phase runs at most 100 s (cpp/workloads.cc), so runs of up to 60 s plus
# set-up end well inside the time limit (kMaxSeconds in cpp/workloads.h).
MAX_SECONDS = 60
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run one perfbench workload.", allow_abbrev=False)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--plant-wrong-answer", action="store_true",
                        help="self-test: corrupt one reference answer")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not 1 <= args.seconds <= MAX_SECONDS:
        parser.error("--seconds must be between 1 and %d" % MAX_SECONDS)
    return args


def build(target):
    """Configures (once) and builds `target`; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("perfeval sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build of " + target + " failed")
    return os.path.join(BUILD, target)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace == "1" else "end_to_end"]}


def main(argv):
    args = parse_args(argv)
    binary = build("perfbench")
    spans = os.path.join(BUILD, "spans")
    os.makedirs(spans, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", spans]
    if args.plant_wrong_answer:
        command.append("--plant-wrong-answer")
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("perfbench exited %d without a result" % run.returncode)
    names = {name: m["unit"] for name, m in result["metrics"].items()}
    if names != expected_metrics(args.trace):
        fail("metrics differ from BENCHMARK.json: " +
             ", ".join(sorted(set(names) ^ set(expected_metrics(args.trace)))))
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return 0 if run.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
