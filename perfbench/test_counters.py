#!/usr/bin/env python3
"""Checks that the benchmark's exact counters repeat for a fixed seed.

For each workload: two runs with one seed and one run with another, each in
both modes (`--trace 0` for bytes_per_point, `--trace 1` for the per-layer
counters). The counters must be identical between the two same-seed runs
and must not all be identical for the second seed.

    python3 perfbench/test_counters.py [workload ...]
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("flash-sedov", "cmip5-store", "flash-adaptive")
EXACT_E2E = ("bytes_per_point", "restore_max_rel_err")
EXACT_LAYER = ("core.gamma", "io.write_calls", "io.fsync_calls",
               "store.manifest_bytes", "adaptive.skip", "adaptive.delta",
               "adaptive.full", "adaptive.codec_numarck", "adaptive.codec_fpc",
               "adaptive.codec_isabela", "adaptive.codec_bspline",
               "util.crc32_bytes", "lossless.stored_bytes")


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], f"{workload} seed {seed}: run not correct"
    names = EXACT_LAYER if trace else EXACT_E2E
    return {k: result["metrics"][k]["value"] for k in names}


def counters(workload, seed):
    return {**run(workload, seed, 0), **run(workload, seed, 1)}


def main():
    failures = 0
    for workload in sys.argv[1:] or WORKLOADS:
        a, b, other = counters(workload, 5), counters(workload, 5), counters(workload, 6)
        if a != b:
            diff = {k: (a[k], b[k]) for k in a if a[k] != b[k]}
            print(f"FAIL {workload}: counters differ for one seed: {diff}")
            failures += 1
        elif a == other:
            print(f"FAIL {workload}: counters identical for a second seed")
            failures += 1
        else:
            print(f"ok   {workload}: {len(a)} counters repeat, and change with the seed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
