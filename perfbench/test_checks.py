#!/usr/bin/env python3
"""The benchmark's own tests: every correctness check can fail.

    python3 perfbench/test_checks.py

For each workload, a short unperturbed run must report correct=true, no failed
operation, and exactly the metric names of BENCHMARK.json (end-to-end without
tracing, per-layer with it). Then, for each check, a run whose expected value
is perturbed (--perturb CHECK) must report correct=false. Exits non-zero on the
first test that does not hold.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")

CHECKS = {
    "tpch": ["tpch.q1", "tpch.q6", "tpch.reference", "tpch.recovery"],
    "oltp": ["oltp.ytd", "oltp.orders", "oltp.payments", "oltp.recovery"],
    "dashboard": ["dashboard.reads", "dashboard.recovery"],
}


def run(workload, trace=False, perturb=None):
    command = [sys.executable, RUN, "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", "1" if trace else "0"]
    if perturb:
        command += ["--perturb", perturb]
    completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if completed.returncode != 0:
        sys.exit(f"FAIL: {' '.join(command)} exited {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as file:
        benchmark = json.load(file)
    for workload, checks in CHECKS.items():
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run(workload, trace=trace)
            expected_names = [metric["name"] for metric in benchmark[key]]
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                sys.exit(f"FAIL: {workload} trace={trace} unperturbed run: {result}")
            if list(result["metrics"]) != expected_names:
                sys.exit(f"FAIL: {workload} trace={trace} metric names differ from BENCHMARK.json {key}")
            for metric in benchmark[key]:
                if result["metrics"][metric["name"]]["unit"] != metric["unit"]:
                    sys.exit(f"FAIL: {workload}: unit of {metric['name']} differs from BENCHMARK.json")
            if not trace and any(value["value"] <= 0 for value in result["metrics"].values()):
                sys.exit(f"FAIL: {workload}: an end-to-end metric is not positive: {result['metrics']}")
        print(f"ok   {workload}: unperturbed runs correct, metrics match BENCHMARK.json")
        for check in checks:
            if run(workload, perturb=check)["correct"]:
                sys.exit(f"FAIL: {workload}: perturbed check {check} was not rejected")
            print(f"ok   {workload}: perturbed {check} rejected")
    print("all checks can fail")


if __name__ == "__main__":
    main()
