#!/usr/bin/env python3
"""Repeats one workload and prints each end-to-end metric's median and spread.

    python3 perfbench/repeat.py --workload tpch [--runs 10] [--first-seed 1]
                                [--seconds S] [--trace]

Runs perfbench/run.py once per seed (first-seed, first-seed + 1, ...) and, for
every end-to-end metric in BENCHMARK.json, prints the median of the runs, the
first and third quartile (statistics.quantiles(values, n=4)), the spread
(Q3 - Q1) / median and the metric's bound. A spread above a third of its bound
is flagged. With --trace it also makes as many traced runs and prints every
per-layer metric's median, and the tracing overhead: the traced runs' median
throughput against the untimed runs'. Every run's result line is saved under
.bench_out/results/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "1" if trace else "0"]
    completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.exit(f"run failed: {' '.join(command)} (exit {completed.returncode})")
    return json.loads(lines[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as file:
        benchmark = json.load(file)
    seconds = args.seconds or benchmark["run_seconds"]
    results_dir = os.path.join(ROOT, ".bench_out", "results")
    os.makedirs(results_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")

    modes = [False, True] if args.trace else [False]
    results = {mode: [] for mode in modes}
    for mode in modes:
        for offset in range(args.runs):
            seed = args.first_seed + offset
            result = run_once(args.workload, seed, seconds, mode)
            results[mode].append(result)
            print(f"seed {seed} trace={int(mode)}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", file=sys.stderr)
        with open(os.path.join(results_dir, f"{args.workload}-trace{int(mode)}-{stamp}.jsonl"), "w") as file:
            for result in results[mode]:
                file.write(json.dumps(result) + "\n")

    untraced = results[False]
    print(f"{args.workload}: {len(untraced)} runs of {seconds} s, correct={all(r['correct'] for r in untraced)}, "
          f"failed share={sorted({r['failed'] / r['attempted'] for r in untraced})}")
    print(f"{'metric':<20} {'unit':<6} {'median':>14} {'Q1':>14} {'Q3':>14} {'spread':>8} {'bound':>6}")
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        median, q1, q3, share = spread([r["metrics"][name]["value"] for r in untraced])
        flag = "" if name == "setup_s" or share <= metric["bound"] / 3 else "  <-- above bound/3"
        print(f"{name:<20} {metric['unit']:<6} {median:>14.6g} {q1:>14.6g} {q3:>14.6g} {share:>8.4f} "
              f"{metric['bound']:>6}{flag}")
    if args.trace:
        traced = results[True]
        print("per-layer medians (traced runs):")
        for metric in benchmark["per_layer"]:
            values = [r["metrics"][metric["name"]]["value"] for r in traced]
            print(f"  {metric['name']:<34} {statistics.median(values):>14.6g} {metric['unit']}")
        plain = statistics.median(r["metrics"]["throughput_ops"]["value"] for r in untraced)
        with_trace = statistics.median(r["metrics"]["trace.throughput_ops"]["value"] for r in traced)
        print(f"tracing overhead: throughput {plain:.4g} -> {with_trace:.4g} ops/s "
              f"({(plain - with_trace) / plain * 100:+.1f} % slower traced)")


if __name__ == "__main__":
    main()
