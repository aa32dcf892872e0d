#pragma once
/// \file scoring_policy.hpp
/// \brief How a resident shard's local scoring structures are chosen.
///
/// Historically declared in core/driver.hpp next to ShardIndex; split out
/// so layers below the driver (notably the live-serving SegmentStore in
/// src/serve/, which decides per sealed segment whether to build a
/// KdRangeIndex) can name the policy without dragging in the whole engine
/// stack.  core/driver.hpp re-exports this header, so existing call sites
/// are unchanged.

#include <cstddef>
#include <cstdint>

namespace dknn {

/// How each shard's local scoring runs (the kd-tree role the paper's §1.4
/// assigns to trees: accelerate local computation, not rounds).
enum class ScoringPolicy : std::uint8_t {
  Brute,   ///< fused SoA scan of the whole shard
  Tree,    ///< KdRangeIndex prune, fused kernel on surviving leaves
  Auto,    ///< per-shard n·d heuristic (see tree_pays_off)
};

[[nodiscard]] const char* scoring_policy_name(ScoringPolicy policy);

/// Auto's per-shard routing decision: true iff the kd-hybrid beat the
/// fused dense scan for shards of this (n, dim) on bench_scenarios'
/// calibration grid (measured brute-vs-tree timings and leaf-visit rates
/// over uniform and clustered data — see the table and its derivation in
/// scoring_policy.cpp, and the checked-in rows in BENCH_scenarios.json).
/// Low dimensions win from n = 2048 up; mid dimensions (≤ 24) only in a
/// moderate-n band where bound tests stay cheap relative to the scan they
/// skip; above d = 24 pruning never recovers its overhead.  Routing
/// changes cost only, never answers — both paths produce byte-identical
/// keys.
[[nodiscard]] bool tree_pays_off(std::size_t n, std::size_t dim);

}  // namespace dknn
