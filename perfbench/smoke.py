#!/usr/bin/env python3
"""Smoke test of the benchmark at toy size.

    python3 perfbench/smoke.py        # from the repository root, ~1 minute

Runs every workload of BENCHMARK.json untraced and traced, twice each with
the same seed, through perfbench/run.py --toy, and asserts that
  * every run exits 0 and reports correct, with no failed operation;
  * every metric of BENCHMARK.json is printed with its unit;
  * each traced run wrote a Chrome trace file that parses;
  * the exact counts repeat exactly between the two traced runs, and in a
    third traced run with another seed: a seed changes values, never sizes.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7

# Counts the library reports, or that follow from the workload's structure:
# the same inputs must give the same numbers.
EXACT = [
    "core.matrix_streams",
    "sparse.bytes_per_sweep",
    "runtime.comm.messages_per_sweep",
    "runtime.comm.halo_bytes_per_sweep",
    "runtime.comm.reduction_bytes",
    "runtime.elastic.checkpoints",
    "runtime.elastic.checkpoint_bytes",
    "runtime.elastic.epochs",
    "runtime.elastic.recomputed_sweeps",
    "service.batches",
    "service.mean_batch_width",
    "service.coalesce_ratio",
    "service.cache_hit_ratio",
]


def run(workload, trace, seed=SEED):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
           "--toy"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().split("\n")
    notes = dict(l[2:].split("=", 1) for l in lines if l.startswith("# "))
    return done.returncode, json.loads(lines[-1]), notes


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in (x["name"] for x in spec["workloads"]):
        traced = []
        for trace in (0, 1):
            want = {m["name"]: m["unit"]
                    for m in spec["per_layer" if trace else "end_to_end"]}
            for _ in range(2):
                rc, result, notes = run(w, trace)
                tag = f"{w} trace={trace}"
                if rc != 0 or not result["correct"] or result["failed"] != 0:
                    problems.append(f"{tag}: rc={rc} result={result}")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != want:
                    problems.append(f"{tag}: metrics/units differ from BENCHMARK.json")
                if trace:
                    with open(notes["trace_file"]) as f:
                        if not isinstance(json.load(f), list):
                            problems.append(f"{tag}: trace file is not a list")
                    traced.append(result["metrics"])
        rc, result, _ = run(w, 1, seed=SEED + 1)
        if rc != 0:
            problems.append(f"{w} seed={SEED + 1}: rc={rc} result={result}")
        traced.append(result["metrics"])
        for name in EXACT:
            values = [m[name]["value"] for m in traced]
            if len(set(values)) != 1:
                problems.append(f"{w}: {name} did not repeat {values}")
        print(f"{w}: checked", flush=True)
    for p in problems:
        print("FAIL", p)
    print("smoke: " + ("FAILED" if problems else "OK"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
