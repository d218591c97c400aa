#!/usr/bin/env python3
"""perfbench: build the pathalias benchmark harness and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload W --repeat K [--seed N] [--seconds S]
    python3 perfbench/run.py --self-test [--workload W]

Run it from the repository root.  The first call configures and builds the
harness (and the library, with the repository's own CMake flags) under
$CARGO_TARGET_DIR (default .bench_build); later calls reuse that build.

A single run passes the harness's output through; its last line is the result
object {"correct", "attempted", "failed", "metrics"}.  --repeat runs seeds
N, N+1, ... and prints each metric's median and quartiles, so a steadiness check
or a before/after comparison reads from one tool.  --self-test plants a wrong
reference answer in each workload and checks that the run reports failures.

Workloads, metrics and what each predicts are described in perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("compile_1m", "serve_1m", "churn_1986")
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build type
RUN_TIMEOUT_S = 175


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; returns the binary's path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("the program's sources (CMakeLists.txt, src/) are not next to perfbench/")
        sys.exit(2)
    if shutil.which("cmake") is None:
        log("cmake not found")
        sys.exit(2)
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        command = ["cmake", "-S", BENCH_DIR, "-B", build_dir, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        if subprocess.run(command, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            log("configure failed")
            sys.exit(2)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    command = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr, cwd=ROOT).returncode != 0:
        log("build failed")
        sys.exit(2)
    return os.path.join(build_dir, "perfbench")


def run_once(binary, workload, seed, seconds, trace, plant_wrong=False):
    """Runs the harness once; returns (stdout lines, result object)."""
    command = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--digests", os.path.join(BENCH_DIR, "compile_1m.digests")]
    if plant_wrong:
        command.append("--plant-wrong")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed} did not finish within {RUN_TIMEOUT_S} s")
        sys.exit(1)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        log(f"{workload} seed {seed} failed (exit {done.returncode})")
        sys.exit(1)
    return lines, json.loads(lines[-1])


def detail_of(lines):
    for line in lines:
        if line.startswith("detail "):
            return json.loads(line[len("detail "):])
    return {}


def spread_row(name, unit, values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "unit": unit,
            "min": min(values), "max": max(values)}


def repeat(binary, args):
    """Runs args.repeat seeds and prints per-metric medians and quartiles."""
    series = {}
    units = {}
    correct = True
    for i in range(args.repeat):
        seed = args.seed + i
        lines, result = run_once(binary, args.workload, seed, args.seconds, args.trace)
        correct = correct and result["correct"]
        named = detail_of(lines).get("named", {})
        row = []
        for group, metrics in (("", result["metrics"]), ("named.", named)):
            for name, metric in metrics.items():
                key = group + name
                series.setdefault(key, []).append(metric["value"])
                units[key] = metric["unit"]
                if not group:
                    row.append(f"{name}={metric['value']:.6g}")
        log(f"{args.workload} seed {seed}: correct={result['correct']} "
            f"failed={result['failed']} " + " ".join(row))
    summary = {key: spread_row(key, units[key], values) for key, values in series.items()}
    print(f"{args.workload}: {args.repeat} runs, seeds {args.seed}..{args.seed + args.repeat - 1}, "
          f"{args.seconds} s each, trace {args.trace}")
    print(f"  {'metric':28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for key, row in summary.items():
        print(f"  {key:28} {row['median']:14.6g} {row['q1']:14.6g} {row['q3']:14.6g} "
              f"{row['spread'] * 100:7.2f}%")
    print(json.dumps({"workload": args.workload, "runs": args.repeat, "correct": correct,
                      "metrics": summary}))
    return 0 if correct else 1


def self_test(binary, args):
    """Plants a wrong answer in each workload; each run must report failures."""
    ok = True
    for workload in ([args.workload] if args.workload else WORKLOADS):
        _, result = run_once(binary, workload, args.seed, 1, 0, plant_wrong=True)
        planted_caught = result["failed"] > 0 and not result["correct"]
        ok = ok and planted_caught
        print(f"self-test {workload}: planted wrong answer -> failed={result['failed']} "
              f"of {result['attempted']}: {'PASS' if planted_caught else 'FAIL'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="run this many seeds and summarize")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if args.self_test:
        return self_test(binary, args)
    if args.repeat > 0:
        return repeat(binary, args)
    lines, _ = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
