#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/METRICS.md).

One run of one workload, as the benchmark contract asks:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

A run measures --seconds seconds' worth of work at the reference host's
speed. The last line of standard output is the JSON result. The exit code
is 0 only when every delivered answer passed the oracle.

Every workload's end-to-end metrics in one table (exit 1 on any oracle
failure):

    python3 perfbench/run.py --all [--seed <n>] [--seconds <s>]

The planted-fault self-test: corrupting one delivered answer must fail the
run on every workload (exit 0 when it does):

    python3 perfbench/run.py --self-test

Run from the repository root. The program is built from source with cargo
into $CARGO_TARGET_DIR (default: .bench_build); run records and traces go
under <target dir>/perfbench.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["paper_batch", "cold_sweep", "warm_rhs", "trickle"]
# A single run must end within the contract's 180 s, build excluded.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target_dir(), "release", "perfbench")


def run_binary(binary, workload, seed, seconds, trace, plant_fault=False):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [
        binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--out-dir", os.path.join(target_dir(), "perfbench"),
    ]
    if plant_fault:
        cmd.append("--plant-fault")
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, []
    sys.stderr.write(done.stderr)
    return done.returncode, done.stdout.splitlines()


def plan_stability(workload, trace, lines):
    """Compares the engines that served each size class with the first
    recorded run of this workload; returns report lines."""
    plans = next((json.loads(l[len("plans "):]) for l in lines if l.startswith("plans ")), None)
    if plans is None:
        return ["plan-stability: no plan record"]
    record_dir = os.path.join(target_dir(), "perfbench")
    os.makedirs(record_dir, exist_ok=True)
    first_path = os.path.join(record_dir, f"plans-{workload}-trace{trace}.json")
    with open(os.path.join(record_dir, "plans-history.jsonl"), "a") as history:
        history.write(json.dumps({"workload": workload, "trace": trace, "plans": plans}) + "\n")
    if not os.path.exists(first_path):
        with open(first_path, "w") as f:
            json.dump(plans, f)
        return [f"plan-stability: first run recorded {json.dumps(plans)}"]
    with open(first_path) as f:
        first = json.load(f)
    flips = {n: {"first": first.get(n), "now": plans.get(n)}
             for n in sorted(set(first) | set(plans)) if first.get(n) != plans.get(n)}
    if flips:
        return [f"plan-stability: FLIP against the first run {json.dumps(flips)}"]
    return ["plan-stability: stable (engines per size class match the first run)"]


def one(args):
    binary = build()
    if binary is None:
        return 1
    code, lines = run_binary(binary, args.workload, args.seed, args.seconds, args.trace)
    if not lines or not lines[-1].startswith("{"):
        print("perfbench: the run printed no result", file=sys.stderr)
        return code or 1
    for line in lines[:-1]:
        print(line)
    for line in plan_stability(args.workload, args.trace, lines):
        print(line)
    print(lines[-1])
    return code


def every_workload(args):
    binary = build()
    if binary is None:
        return 1
    failures = 0
    print(f"{'workload':<12} {'metric':<30} {'value':>16} {'unit':<6} label")
    for workload in WORKLOADS:
        code, lines = run_binary(binary, workload, args.seed, args.seconds, 0)
        rows = [l.split() for l in lines if l.startswith("  ")]
        for row in rows:
            # "  <name> <value> <unit> [<label>] <note...>"
            print(f"{workload:<12} {row[0]:<30} {float(row[1]):>16.6f} {row[2]:<6} {row[3].strip('[]')}")
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if code != 0 or result is None or not result["correct"]:
            failures += 1
            print(f"{workload:<12} FAILED (exit {code})")
    return 1 if failures else 0


def self_test(args):
    binary = build()
    if binary is None:
        return 1
    caught = 0
    for workload in WORKLOADS:
        code, lines = run_binary(binary, workload, args.seed, args.seconds, 0, plant_fault=True)
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
        ok = code != 0 and result.get("failed", 0) >= 1 and result.get("correct") is False
        caught += ok
        verdict = "caught" if ok else "MISSED"
        print(f"{workload:<12} planted fault {verdict}: exit {code}, failed {result.get('failed')}")
    return 0 if caught == len(WORKLOADS) else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOADS)
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--self-test", action="store_true")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if not 0 <= args.seed < 2**64:
        p.error("--seed must fit in 64 bits")
    if args.workload:
        args.seconds = args.seconds or 10
        return one(args)
    if args.all:
        args.seconds = args.seconds or 3
        return every_workload(args)
    args.seconds = args.seconds or 1
    return self_test(args)


if __name__ == "__main__":
    sys.exit(main())
