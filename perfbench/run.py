#!/usr/bin/env python3
"""Benchmark entry point for kpm-pe.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds kpm_perfbench (perfbench/CMakeLists.txt,
which compiles the library from ../src) into .bench_build/perfbench on first
use, runs one workload, and prints its output.  The last stdout line
is the result JSON; it is printed only after its metric names and units were
checked against BENCHMARK.json.  The exit code is kpm_perfbench's: non-zero when
any audited operation failed.  `--toy` shrinks every problem (smoke test).
`--workload all` runs every workload of BENCHMARK.json in turn and prints one
result line per workload, prefixed with its name.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TMP = os.path.join(ROOT, ".bench_build", "perfbench-tmp")
BINARY = os.path.join(BUILD, "kpm_perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "build.ninja")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", "4"])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail("build failed: " + " ".join(cmd))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(args, workload):
    """Runs one workload; returns (exit code, result line or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--tmpdir", TMP]
    if args.toy:
        cmd.append("--toy")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: kpm_perfbench exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"perfbench: kpm_perfbench exited {done.returncode} without a result",
              file=sys.stderr)
        return 1, None
    key = "per_layer" if args.trace == "1" else "end_to_end"
    want = {m["name"]: m["unit"] for m in load_spec()[key]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        print("perfbench: metrics do not match BENCHMARK.json: "
              f"missing {sorted(set(want) - set(got))}, "
              f"extra {sorted(set(got) - set(want))}, unit mismatch "
              f"{sorted(k for k in got if k in want and got[k] != want[k])}",
              file=sys.stderr)
        return 1, None
    return done.returncode, lines[-1]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--toy", action="store_true")
    args = ap.parse_args()

    build()
    os.makedirs(TMP, exist_ok=True)
    if args.workload != "all":
        rc, line = run_workload(args, args.workload)
        if line is None:
            sys.exit(1)
        print(line, flush=True)
        sys.exit(rc)
    failed = False
    for w in (x["name"] for x in load_spec()["workloads"]):
        rc, line = run_workload(args, w)
        print(f"{w}: {line}", flush=True)
        failed = failed or rc != 0 or line is None
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
