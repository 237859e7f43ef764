#!/usr/bin/env python3
"""Runs every workload untraced and prints its end-to-end metrics.

    python3 perfbench/all.py --seed 1 --seconds 30

Prints one table row per metric with its unit, and failed/attempted per
workload. It also prints the htap_write write-path figures (commit
latency, recovery, disk bytes per row), which only that workload has.
Exits 1 when any workload fails a check.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402


def main(argv):
    parser = argparse.ArgumentParser(allow_abbrev=False)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    args = parser.parse_args(argv)
    status = 0
    for workload in run.WORKLOADS:
        out = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        lines = out.stdout.rstrip("\n").split("\n")
        if out.returncode != 0:
            status = 1
        try:
            result = json.loads(lines[-1])
        except ValueError:
            print("%-11s no result (exit %d)" % (workload, out.returncode))
            continue
        print("%-11s correct=%s failed/attempted=%d/%d" %
              (workload, result["correct"], result["failed"],
               result["attempted"]))
        for name, metric in result["metrics"].items():
            print("  %-18s %14.4f %s" % (name, metric["value"], metric["unit"]))
        for line in lines:
            if line.startswith(("# write path:", "# VIOLATION", "# PROGRAM")):
                print("  " + line[2:])
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
