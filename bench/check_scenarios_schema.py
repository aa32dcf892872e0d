#!/usr/bin/env python3
"""Schema check for bench_scenarios --json output.

Run by the smoke_bench_scenarios_schema ctest leg (and CI) against the JSON
the smoke matrix just emitted: the file must parse, carry every scenario
stanza the matrix promises, and every latency object must expose the full
percentile ladder (p50/p95/p99/p999) from the shared quantile module.
Exit 0 on success, 1 with a message on any violation.

Usage: check_scenarios_schema.py <path-to-BENCH_scenarios.json>
"""

import json
import sys

LATENCY_FIELDS = ("count", "min", "mean", "max", "p50", "p95", "p99", "p999")
CLOSED_LOOP_FIELDS = ("mode", "n", "dim", "data", "query_skew", "churn",
                      "queries", "queries_per_sec", "latency_ms", "tree")
TREE_FIELDS = ("queries", "nodes_visited", "subtrees_pruned", "leaves_scored",
               "points_scored", "scan_fraction")
CALIBRATION_CELL_FIELDS = ("n", "dim", "data", "scan_fraction",
                           "brute_ms_per_query", "tree_ms_per_query",
                           "tree_wins")
# Stanzas every run of the matrix must emit, whatever --n is.
REQUIRED_SCENARIOS = (
    "uniform_d2", "uniform_d8", "uniform_d64", "uniform_d256",
    "clustered_d8", "clustered_d64",
    "zipf_queries_d8", "zipf_churn_d8", "uniform_churn_d8", "delete_storm_d8",
    "open_loop_qps_d8", "calibration", "obs_overhead",
)
OBS_OVERHEAD_FIELDS = ("metrics_on_qps", "metrics_off_qps", "overhead_fraction",
                       "budget_fraction")


def fail(msg):
    print(f"schema check FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def check_latency(obj, where):
    for field in LATENCY_FIELDS:
        if field not in obj:
            fail(f"{where}: latency object missing '{field}'")
        if not isinstance(obj[field], (int, float)):
            fail(f"{where}: latency field '{field}' is not a number")
    if obj["count"] > 0:
        if not (obj["min"] <= obj["p50"] <= obj["p95"] <= obj["p99"]
                <= obj["p999"] <= obj["max"]):
            fail(f"{where}: percentile ladder not monotone: {obj}")


def main():
    if len(sys.argv) != 2:
        fail("usage: check_scenarios_schema.py <BENCH_scenarios.json>")
    try:
        with open(sys.argv[1], encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"cannot parse {sys.argv[1]}: {err}")

    if doc.get("bench") != "scenarios":
        fail("top-level 'bench' is not 'scenarios'")
    for field in ("n", "ell", "queries", "seed", "machines"):
        if field not in doc.get("config", {}):
            fail(f"config missing '{field}'")

    scenarios = doc.get("scenarios")
    if not isinstance(scenarios, dict):
        fail("'scenarios' missing or not an object")
    for name in REQUIRED_SCENARIOS:
        if name not in scenarios:
            fail(f"missing scenario stanza '{name}'")

    closed = [name for name in REQUIRED_SCENARIOS
              if scenarios[name].get("mode") == "closed-loop"]
    if len(closed) < 8:
        fail(f"only {len(closed)} closed-loop stanzas (need >= 8)")
    for name in closed:
        stanza = scenarios[name]
        for field in CLOSED_LOOP_FIELDS:
            if field not in stanza:
                fail(f"{name}: missing '{field}'")
        check_latency(stanza["latency_ms"], name)
        for field in TREE_FIELDS:
            if field not in stanza["tree"]:
                fail(f"{name}: tree object missing '{field}'")

    open_loop = scenarios["open_loop_qps_d8"]
    if open_loop.get("mode") != "open-loop":
        fail("open_loop_qps_d8 is not mode 'open-loop'")
    if open_loop.get("arrivals") != "poisson":
        fail("open_loop_qps_d8 arrivals is not 'poisson'")
    levels = open_loop.get("levels")
    if not isinstance(levels, list) or len(levels) < 3:
        fail("open_loop_qps_d8 needs >= 3 offered-QPS levels")
    for i, level in enumerate(levels):
        for field in ("offered_qps", "achieved_qps", "latency_ms"):
            if field not in level:
                fail(f"open-loop level {i}: missing '{field}'")
        check_latency(level["latency_ms"], f"open-loop level {i}")

    calibration = scenarios["calibration"]
    if calibration.get("mode") != "calibration":
        fail("calibration stanza is not mode 'calibration'")
    grid = calibration.get("grid")
    if not isinstance(grid, list) or len(grid) < 8:
        fail("calibration grid needs >= 8 cells")
    for i, cell in enumerate(grid):
        for field in CALIBRATION_CELL_FIELDS:
            if field not in cell:
                fail(f"calibration cell {i}: missing '{field}'")

    obs = scenarios["obs_overhead"]
    if obs.get("mode") != "obs-overhead":
        fail("obs_overhead stanza is not mode 'obs-overhead'")
    for field in OBS_OVERHEAD_FIELDS:
        if field not in obs:
            fail(f"obs_overhead: missing '{field}'")
        if not isinstance(obs[field], (int, float)):
            fail(f"obs_overhead: field '{field}' is not a number")

    print(f"schema check OK: {len(closed)} closed-loop stanzas, "
          f"{len(levels)} open-loop levels, {len(grid)} calibration cells, "
          f"obs overhead {obs['overhead_fraction']:.4f}")


if __name__ == "__main__":
    main()
