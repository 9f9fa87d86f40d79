#!/usr/bin/env python3
"""CI gate over the numarck-bench-codec JSON snapshots.

Validates that BENCH_kmeans.json carries the full engine x sampling x
threads sweep with every expected key, and enforces the performance floor
this sweep exists to defend: the clustering strategy's encode throughput
as a fraction of the equal-width strategy's must not regress below
--min-vs-equal-width (the histogram-Lloyd engine closed a 5x gap; the
floor keeps it closed).

With --baselines it additionally validates the cross-codec sweep in
BENCH_baselines.json: every registered codec (numarck, fpc, isabela,
bspline) must appear with both an encode and a decode row, every row must
carry positive throughput, and every payload must actually be smaller than
raw float64. The file's lossless post-pass sweep is gated too: the
none/huffman/rans modes must each carry encode and decode rows, the rANS
frame must be strictly smaller than Huffman's on the skewed index
workload, and the interleaved rANS index decode must beat the bit-serial
Huffman loop by --min-rans-decode-speedup.

With --io it additionally validates the streaming container I/O sweep in
BENCH_io.json: the append/scan/scan_ifstream/load ops must all be
measured with positive throughput on a non-empty container, and the
streamed FileSource scan must not fall below --min-scan-speedup of the
whole-file ifstream-slurp baseline it replaced (the bounded-memory scan
must not cost meaningful wall time).

Usage:
  check_bench.py BENCH_kmeans.json [--min-vs-equal-width 0.25]
                                   [--max-ratio-delta-pct 2.0]
                                   [--baselines BENCH_baselines.json]
                                   [--io BENCH_io.json]
                                   [--min-scan-speedup 0.5]
"""

import argparse
import json
import sys

TOP_KEYS = [
    "benchmark",
    "points",
    "reps",
    "k",
    "hardware_concurrency",
    "results",
    "clustering_encode_mpoints_per_s",
    "clustering_vs_equal_width_encode",
    "histogram_vs_exact_speedup",
]

ROW_KEYS = [
    "engine",
    "sampling_ratio",
    "threads",
    "seconds",
    "mpoints_per_s",
    "gamma",
    "paper_ratio_pct",
    "ratio_delta_vs_exact_pct",
]


BASELINE_CODECS = ["numarck", "fpc", "isabela", "bspline"]

BASELINE_ROW_KEYS = [
    "codec",
    "op",
    "seconds",
    "mpoints_per_s",
    "bytes_per_point",
    "ratio_pct",
]

POSTPASS_MODES = ["none", "huffman", "rans"]

POSTPASS_ROW_KEYS = [
    "postpass",
    "op",
    "seconds",
    "mpoints_per_s",
    "bytes_per_point",
]


def fail(msg: str) -> None:
    print(f"check_bench: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_baselines(path: str, min_rans_decode_speedup: float) -> None:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("benchmark") != "baselines":
        fail(f"unexpected baselines benchmark id {doc.get('benchmark')!r}")
    rows = doc.get("results", [])
    if not rows:
        fail("empty baselines results array")
    for i, row in enumerate(rows):
        row_missing = [k for k in BASELINE_ROW_KEYS if k not in row]
        if row_missing:
            fail(f"baselines results[{i}] missing keys: {row_missing}")
        if row["mpoints_per_s"] <= 0:
            fail(f"baselines results[{i}] has non-positive throughput")
        if not 0 < row["bytes_per_point"] < 8:
            fail(
                f"baselines results[{i}] ({row['codec']}/{row['op']}) "
                f"stores {row['bytes_per_point']:.2f} B/pt — not smaller "
                "than raw float64"
            )
    for codec in BASELINE_CODECS:
        for op in ("encode", "decode"):
            if not any(r["codec"] == codec and r["op"] == op for r in rows):
                fail(f"baselines sweep is missing {codec}/{op}")

    # Lossless post-pass sweep: every mode measured both ways, and the rANS
    # coder must actually beat Huffman on the skewed workload the feature
    # exists for — both in stored bytes and in decode throughput.
    prows = doc.get("postpass_results", [])
    if not prows:
        fail("missing postpass_results sweep")
    for i, row in enumerate(prows):
        row_missing = [k for k in POSTPASS_ROW_KEYS if k not in row]
        if row_missing:
            fail(f"postpass_results[{i}] missing keys: {row_missing}")
        if row["mpoints_per_s"] <= 0 or row["bytes_per_point"] <= 0:
            fail(f"postpass_results[{i}] has a non-positive measurement")
    for mode in POSTPASS_MODES:
        for op in ("encode", "decode"):
            if not any(r["postpass"] == mode and r["op"] == op for r in prows):
                fail(f"postpass sweep is missing {mode}/{op}")
    bytes_ratio = doc.get("rans_vs_huffman_bytes", 1.0)
    if not 0 < bytes_ratio < 1.0:
        fail(
            f"rANS stores {bytes_ratio:.3f}x the Huffman bytes on the skewed "
            "workload — the entropy coder has stopped winning"
        )
    dec_speedup = doc.get("rans_vs_huffman_decode_speedup", 0.0)
    if dec_speedup < min_rans_decode_speedup:
        fail(
            f"rANS index decode is only {dec_speedup:.2f}x Huffman's "
            f"(floor {min_rans_decode_speedup}x) — the interleaved decode "
            "has regressed"
        )
    print(
        f"check_bench: OK: baselines sweep covers {BASELINE_CODECS}; "
        f"postpass rans = {bytes_ratio:.3f}x huffman bytes, "
        f"{dec_speedup:.2f}x huffman decode"
    )


IO_OPS = ["append", "scan", "scan_ifstream", "load"]

IO_ROW_KEYS = ["op", "seconds", "mb_per_s"]


def check_io(path: str, min_scan_speedup: float) -> None:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("benchmark") != "io":
        fail(f"unexpected io benchmark id {doc.get('benchmark')!r}")
    if doc.get("container_bytes", 0) <= 0:
        fail("io sweep ran on an empty container")
    if doc.get("records", 0) <= 0:
        fail("io sweep ran on a container with no records")
    rows = doc.get("results", [])
    if not rows:
        fail("empty io results array")
    for i, row in enumerate(rows):
        row_missing = [k for k in IO_ROW_KEYS if k not in row]
        if row_missing:
            fail(f"io results[{i}] missing keys: {row_missing}")
        if row["seconds"] <= 0 or row["mb_per_s"] <= 0:
            fail(f"io results[{i}] ({row.get('op')}) has a non-positive "
                 "measurement")
    for op in IO_OPS:
        if not any(r["op"] == op for r in rows):
            fail(f"io sweep is missing the {op} op")
    speedup = doc.get("scan_vs_ifstream_speedup", 0.0)
    if speedup < min_scan_speedup:
        fail(
            f"streamed scan is only {speedup:.2f}x the ifstream-slurp "
            f"baseline (floor {min_scan_speedup}x) — the bounded-memory "
            "scan has regressed"
        )
    print(
        f"check_bench: OK: io sweep covers {IO_OPS} over "
        f"{doc['container_bytes']} container bytes, streamed scan "
        f"{speedup:.2f}x the ifstream slurp"
    )


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("path")
    ap.add_argument("--min-vs-equal-width", type=float, default=0.25)
    ap.add_argument("--max-ratio-delta-pct", type=float, default=2.0)
    ap.add_argument("--baselines", default=None,
                    help="also validate a BENCH_baselines.json sweep")
    ap.add_argument("--min-rans-decode-speedup", type=float, default=1.5)
    ap.add_argument("--io", default=None,
                    help="also validate a BENCH_io.json sweep")
    ap.add_argument("--min-scan-speedup", type=float, default=0.5)
    args = ap.parse_args()

    if args.baselines:
        check_baselines(args.baselines, args.min_rans_decode_speedup)
    if args.io:
        check_io(args.io, args.min_scan_speedup)

    with open(args.path, encoding="utf-8") as f:
        doc = json.load(f)

    missing = [k for k in TOP_KEYS if k not in doc]
    if missing:
        fail(f"missing top-level keys: {missing}")
    if doc["benchmark"] != "kmeans":
        fail(f"unexpected benchmark id {doc['benchmark']!r}")

    rows = doc["results"]
    if not rows:
        fail("empty results array")
    for i, row in enumerate(rows):
        row_missing = [k for k in ROW_KEYS if k not in row]
        if row_missing:
            fail(f"results[{i}] missing keys: {row_missing}")
        if row["mpoints_per_s"] <= 0:
            fail(f"results[{i}] has non-positive throughput")

    engines = {r["engine"] for r in rows}
    if not {"exact", "histogram"} <= engines:
        fail(f"sweep must cover both engines, got {sorted(engines)}")
    samplings = {r["sampling_ratio"] for r in rows}
    if len(samplings) < 2:
        fail(f"sweep must cover multiple sampling ratios, got {sorted(samplings)}")

    # The exactness story: every configuration's paper ratio must sit near
    # the exact engine's unsampled ratio.
    worst = max(abs(r["ratio_delta_vs_exact_pct"]) for r in rows)
    if worst > args.max_ratio_delta_pct:
        fail(
            f"compression ratio drifted {worst:.3f}% from the exact engine "
            f"(limit {args.max_ratio_delta_pct}%)"
        )

    vs_ew = doc["clustering_vs_equal_width_encode"]
    if vs_ew < args.min_vs_equal_width:
        fail(
            f"clustering encode is {vs_ew:.3f}x the equal-width strategy "
            f"(floor {args.min_vs_equal_width}x) — the clustering-encode "
            "gap has regressed"
        )

    print(
        f"check_bench: OK: {len(rows)} rows, clustering encode "
        f"{doc['clustering_encode_mpoints_per_s']:.2f} Mpt/s "
        f"({vs_ew:.2f}x equal-width, histogram {doc['histogram_vs_exact_speedup']:.2f}x exact), "
        f"max ratio drift {worst:.3f}%"
    )


if __name__ == "__main__":
    main()
