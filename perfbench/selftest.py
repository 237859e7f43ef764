#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/selftest.py

Builds and runs perfbench_selftest (percentile sample rule, geomean of
per-template medians, span self-time arithmetic), then a short smoke run of
each workload, untraced and traced, that must pass every check, and one
with a planted wrong answer that must be counted as failed operations.
Takes a few minutes; exits 1 on the first failure.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402

SMOKE_SECONDS = 2


def smoke(workload, trace, plant):
    command = [sys.executable, os.path.join(run.HERE, "run.py"),
               "--workload", workload, "--seed", "7",
               "--seconds", str(SMOKE_SECONDS), "--trace", trace]
    if plant:
        command.append("--plant-wrong-answer")
    out = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    result = json.loads(out.stdout.rstrip("\n").split("\n")[-1])
    if plant:
        ok = (out.returncode == 1 and not result["correct"]
              and result["failed"] > 0)
    else:
        ok = out.returncode == 0 and result["correct"] and result["failed"] == 0
    print("%s smoke %s trace=%s%s: attempted %d, failed %d" %
          ("ok  " if ok else "FAIL", workload, trace,
           " planted" if plant else "", result["attempted"], result["failed"]))
    return ok


def main():
    selftest = run.build("perfbench_selftest")
    if subprocess.run([selftest]).returncode != 0:
        return 1
    ok = True
    for workload in run.WORKLOADS:
        ok &= smoke(workload, "0", False)
        ok &= smoke(workload, "1", False)
        ok &= smoke(workload, "0", True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
