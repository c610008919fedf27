#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at minimal size.

Run from the repository root:

    python3 perfbench/smoke.py

For each workload in BENCHMARK.json it runs one untraced and one traced
one-second run and checks that the last line is the result object, that the
run is correct with no failed operation, that the untraced run emits exactly
the end-to-end metrics and the traced run exactly the per-layer metrics, with
the units BENCHMARK.json gives, and that the traced run names, for every
per-layer metric, the end-to-end metric and workload it should move.  It then
checks the deterministic counters of the traced run: two runs with one seed
print the same counters, a run with another seed prints different ones.
Exits 1 on the first failed check.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYER_LINE = re.compile(r"^(\S+) = \S+ \S+ \(moves .+ on .+\)$")


def run(spec, workload, seed, trace):
    argv = spec["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        fail(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def fail(message):
    print(f"smoke: FAIL {message}")
    sys.exit(1)


def check_result(result, metrics, where):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{where}: correct={result['correct']} failed={result['failed']} "
             f"attempted={result['attempted']}")
    expected = {m["name"]: m["unit"] for m in metrics}
    emitted = {name: value["unit"] for name, value in result["metrics"].items()}
    if emitted != expected:
        fail(f"{where}: emitted {emitted}, BENCHMARK.json names {expected}")


def counters(lines):
    return [line for line in lines if line.startswith("counters ")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    layers = {m["name"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        _, result = run(spec, workload, 1, 0)
        check_result(result, spec["end_to_end"], f"{workload} --trace 0")
        lines, result = run(spec, workload, 1, 1)
        check_result(result, spec["per_layer"], f"{workload} --trace 1")
        stated = {m[1] for m in map(LAYER_LINE.match, lines) if m}
        if stated != layers:
            fail(f"{workload}: no moved metric and workload named for {sorted(layers - stated)}")
        again, _ = run(spec, workload, 1, 1)
        other, _ = run(spec, workload, 2, 1)
        if not counters(lines) or counters(again) != counters(lines):
            fail(f"{workload}: counters differ between two runs of one seed")
        if counters(other) == counters(lines):
            fail(f"{workload}: counters do not change with the seed")
        print(f"smoke: ok {workload}")


if __name__ == "__main__":
    main()
