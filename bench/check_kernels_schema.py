#!/usr/bin/env python3
"""Schema + parallel-floor check for bench_micro_kernels --json output.

Run by the smoke_bench_kernels_schema ctest leg (and CI) against the JSON
the kernel bench just emitted.  Two failure classes with distinct exit
codes:

  * exit 1 — structural: the file does not parse, a required path row or
    ratio is missing, a timed row has non-positive fields, or a run on
    4+ threads left the parallel row null;
  * exit 2 — performance floor: speedup_parallel_vs_serial is below 1.0,
    i.e. scoring on the work-stealing pool is slower than one thread.

Below 4 hardware threads the bench records the parallel row as JSON null
(it would measure pool overhead, not scaling); at 4 or more a null row is
a structural failure, so a slower parallel path cannot hide behind null.

Usage: check_kernels_schema.py <path-to-BENCH_kernels.json>
"""

import json
import sys

REQUIRED_PATHS = ("aos_per_query", "soa_materialized", "soa_fused_batch",
                  "soa_fused_batch_scalar", "soa_fused_batch_d32",
                  "soa_fused_small_shards",
                  "soa_fused_batch_parallel", "kdtree_hybrid",
                  "facade_query_batch")
ROW_FIELDS = ("median_ms", "ns_per_point", "queries_per_sec")
RATIOS = ("speedup_fused_vs_aos", "speedup_simd_vs_scalar",
          "speedup_parallel_vs_serial", "speedup_hybrid_vs_brute",
          "facade_overhead_vs_fused")
PARALLEL_THREADS = 4
PARALLEL_FLOOR = 1.0


def fail(msg, code=1):
    print(f"kernels schema check FAILED: {msg}", file=sys.stderr)
    sys.exit(code)


def main():
    if len(sys.argv) != 2:
        fail("usage: check_kernels_schema.py <BENCH_kernels.json>")
    try:
        with open(sys.argv[1], encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"cannot parse {sys.argv[1]}: {err}")

    if doc.get("bench") != "kernels":
        fail("top-level 'bench' is not 'kernels'")
    workload = doc.get("workload")
    if not isinstance(workload, dict):
        fail("'workload' missing or not an object")
    threads = workload.get("threads")
    if not isinstance(threads, int) or threads < 1:
        fail("'workload.threads' missing or not a positive integer")

    paths = doc.get("paths")
    if not isinstance(paths, dict):
        fail("'paths' missing or not an object")
    for name in REQUIRED_PATHS:
        if name not in paths:
            fail(f"path row '{name}' missing")
    for name, row in paths.items():
        if row is None:
            if name != "soa_fused_batch_parallel":
                fail(f"path row '{name}' is null")
            continue
        for field in ROW_FIELDS:
            value = row.get(field)
            if not (isinstance(value, (int, float)) and value > 0):
                fail(f"path row '{name}': '{field}' is not a positive number")

    for ratio in RATIOS:
        if ratio not in doc:
            fail(f"ratio '{ratio}' missing")
    parallel = doc["speedup_parallel_vs_serial"]
    if parallel is None:
        if threads >= PARALLEL_THREADS:
            fail(f"parallel row is null on {threads} threads (>= {PARALLEL_THREADS})")
        print(f"kernels schema check OK: parallel row skipped at {threads} thread(s)")
        return
    if paths["soa_fused_batch_parallel"] is None:
        fail("speedup_parallel_vs_serial is set but the parallel row is null")
    if parallel < PARALLEL_FLOOR:
        fail(f"speedup_parallel_vs_serial {parallel:.2f} < {PARALLEL_FLOOR} at "
             f"{threads} threads — parallel scoring is slower than serial", code=2)
    print(f"kernels schema check OK: {len(paths)} path rows, parallel "
          f"{parallel:.2f}x serial at {threads} threads")


if __name__ == "__main__":
    main()
