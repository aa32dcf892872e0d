#pragma once
/// \file scoring_policy.hpp
/// \brief The one per-machine local index: how a resident point set's
///        scoring structures are chosen, built and queried.
///
/// The paper gives k-d trees exactly one job in the k-machine model (§1.4):
/// accelerate each machine's local top-ℓ — Algorithm 2's first step —
/// without touching rounds or messages.  `ShardIndex` is that mechanism,
/// built once by `build_shard_index` and queried through one dispatch,
/// `shard_top_ell_batch`.  Every resident point set uses it: static shards
/// (core/driver.hpp's make_shard_indexes), sealed live segments
/// (serve/segment_store.hpp's SealedSegment derives from it) and vector
/// sessions (core/session.hpp).  It sits below the driver so the serve
/// layer can build and score segments without the engine stack.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "data/flat_store.hpp"
#include "data/kernels.hpp"
#include "data/key.hpp"
#include "data/metric_kind.hpp"
#include "data/point.hpp"
#include "seq/kdtree.hpp"

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

/// One resident point set's scoring structures: always an SoA store, plus
/// the kd-tree when the policy selected the hybrid path for it.
struct ShardIndex {
  FlatStore flat;                      ///< engaged iff tree == nullptr
  std::unique_ptr<KdRangeIndex> tree;  ///< engaged iff the tree path won

  [[nodiscard]] bool has_tree() const { return tree != nullptr; }
  /// The store brute scans: the tree's reordered mirror when present.
  [[nodiscard]] const FlatStore& store() const { return tree ? tree->store() : flat; }
};

/// Builds the scoring structures of one point set (`ids[i]` labels
/// `points[i]`): a KdRangeIndex of `leaf_size`-point leaves when `policy`
/// is Tree, or Auto and tree_pays_off(n, dim); a plain FlatStore otherwise
/// (always for an empty set).
[[nodiscard]] ShardIndex build_shard_index(std::span<const PointD> points,
                                           std::span<const PointId> ids, ScoringPolicy policy,
                                           std::size_t leaf_size = KdRangeIndex::kDefaultLeafSize);

/// The one local top-ℓ dispatch over a ShardIndex, restricted to the rows
/// of `live_runs` (disjoint ranges of index.store(); pass {0, size} for the
/// whole set).  Runs the kd-hybrid when the index has a tree and the runs
/// cover every row, and fused_top_ell_ranges over the runs otherwise —
/// byte-identical either way (fuzzed in tests/test_parity.cpp).  `out` as
/// in fused_top_ell_ranges.
void shard_top_ell_batch(const ShardIndex& index, std::span<const RowRange> live_runs,
                         std::span<const PointD> queries, std::size_t ell, MetricKind kind,
                         std::vector<std::vector<Key>>& out, KernelScratch& scratch);

}  // namespace dknn
