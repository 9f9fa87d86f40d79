#!/usr/bin/env python3
"""Builds and runs the NUMARCK pipeline benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload flash-sedov --seed 1 --seconds 10 --trace 0

The first run configures and builds `numarck-pipeline-bench` (Release) under
`.bench_build/perfbench` (or `$CARGO_TARGET_DIR/perfbench` when that is
set); later runs only check that the build is up to date. Checkpoint files
go to a scratch directory under the build directory and are removed at
exit. With `--trace 1` the span ledger is written as JSONL to
`<build>/spans/<workload>-seed<seed>.jsonl`.

The last line of standard output is the result object
`{"correct", "attempted", "failed", "metrics"}`. The exit code is 0 only
when the build succeeded and every output check passed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("flash-sedov", "cmip5-store", "flash-adaptive")
TARGET = "numarck-pipeline-bench"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(bench_dir, build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", bench_dir, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "--target", TARGET,
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, TARGET)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    if not os.path.exists(os.path.join(bench_dir, "..", "src", "CMakeLists.txt")):
        log("no NUMARCK source tree next to the benchmark; nothing to build")
        return 2
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_root, "perfbench")
    try:
        binary = build(bench_dir, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2

    workdir = os.path.join(build_dir, f"run-{args.workload}-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans",
                os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        log("benchmark timed out")
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"no result line (exit code {proc.returncode})")
        return proc.returncode or 4
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
