#pragma once
/// \file driver.hpp
/// \brief One-call runners: wire a sharded dataset into an Engine, execute a
///        distributed algorithm on every machine, and assemble the global
///        answer plus the run's cost report.
///
/// These free functions are the *decomposed stages* beneath the KnnService
/// facade (core/knn_service.hpp) — application code should usually hold a
/// KnnService and let it own the shards, indexes, pool and cache; reach
/// for a stage directly when you need exactly one step.  The facade is
/// byte-identical to composing these yourself (fuzzed in
/// tests/test_service.cpp), so the two surfaces never fork:
///
///   auto ds = make_scalar_shards(values, k, PartitionScheme::RoundRobin, rng);
///   auto scored = score_scalar_shards(ds, query);
///   auto result = run_knn(scored, ell, KnnAlgo::DistKnn, engine_config, {});
///
/// Batched serving path (many queries against one resident dataset) —
/// build each shard's ShardIndex once (SoA FlatStore, plus a kd-tree when
/// the ScoringPolicy picks the hybrid), score the whole query block with
/// the fused kernels (per query and shard only the local top-ℓ
/// keys are ever materialized), and run every query through one engine so
/// setup cost amortizes.  The scoring step has exactly two batch entries,
/// one per kind of resident machine — `score_vector_shards_batch` over
/// frozen ShardIndexes and `score_serve_snapshots_batch` over live
/// SegmentStore snapshots.  Both run one per-machine scorer, and every
/// static shard and sealed segment goes through one local dispatch,
/// shard_top_ell_batch (seq/scoring_policy.hpp):
///
///   auto shards  = make_vector_shards(points, k, PartitionScheme::RoundRobin, rng);
///   auto indexes = make_shard_indexes(shards, ScoringPolicy::Auto);   // once
///   auto scored  = score_vector_shards_batch(indexes, queries, ell,
///                      MetricKind::SquaredEuclidean, {.threads = 0});  // pool
///   auto batch   = run_knn_batch(scored, ell, KnnAlgo::DistKnn, engine_config);
///   // batch.per_query[q].keys == run_knn(...) on query q's scores
///
/// Scoring parallelism (BatchScoringConfig::threads) and protocol-side
/// parallelism (EngineConfig::parallel for run_knn / run_knn_batch) both
/// ride the work-stealing pool in sim/thread_pool.hpp; neither changes a
/// single output byte (tests/test_parity.cpp fuzzes this).  Fault
/// tolerance is a skip mask on the same two entries: probe_machines
/// (fault/health.hpp) says which machines to leave out.
///
/// Everything below is deterministic given (dataset, seeds, config).

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/dist_knn.hpp"
#include "core/dist_select.hpp"
#include "data/flat_store.hpp"
#include "data/generators.hpp"
#include "data/ids.hpp"
#include "data/kernels.hpp"
#include "data/key.hpp"
#include "data/metric.hpp"
#include "data/partition.hpp"
#include "data/point.hpp"
#include "seq/scoring_policy.hpp"  // IWYU pragma: export — ShardIndex and ScoringPolicy lived here
#include "serve/segment_store.hpp"
#include "sim/engine.hpp"
#include "sim/thread_pool.hpp"

namespace dknn {

/// One machine's share of a scalar dataset (paper §3 setting).
struct ScalarShard {
  std::vector<Value> values;
  std::vector<PointId> ids;  ///< unique tie-breaking ids, aligned with values
};

/// One machine's share of a d-dimensional dataset.
struct VectorShard {
  std::vector<PointD> points;
  std::vector<PointId> ids;
};

/// Shards `values` over k machines and assigns globally unique random ids.
[[nodiscard]] std::vector<ScalarShard> make_scalar_shards(std::vector<Value> values,
                                                          std::uint32_t k,
                                                          PartitionScheme scheme, Rng& rng);

/// Shards `points` over k machines and assigns globally unique random ids.
[[nodiscard]] std::vector<VectorShard> make_vector_shards(std::vector<PointD> points,
                                                          std::uint32_t k,
                                                          PartitionScheme scheme, Rng& rng);

/// Where each input point landed after sharding: placement[i] = (machine,
/// row) of points[i].
using ShardPlacement = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// As above, additionally reporting each point's destination.  This is the
/// hook that lets positional metadata (labels, targets) follow points
/// through a randomized partition without coordinate-matching hacks — the
/// KnnServiceBuilder uses it to route flat label/target arrays to the
/// right machine.  Consumes the same rng stream as the plain overload, so
/// both produce byte-identical shards for equal seeds.
[[nodiscard]] std::vector<VectorShard> make_vector_shards(std::vector<PointD> points,
                                                          std::uint32_t k,
                                                          PartitionScheme scheme, Rng& rng,
                                                          ShardPlacement& placement);

/// Scores one scalar shard against a query: keys are (|v − q|, id).
[[nodiscard]] std::vector<Key> score_scalar_shard(const ScalarShard& shard, Value query);

/// Scores all shards (the per-machine local computation before any
/// distributed algorithm runs).
[[nodiscard]] std::vector<std::vector<Key>> score_scalar_shards(
    const std::vector<ScalarShard>& shards, Value query);

/// Hamming-space scoring (paper §1: "commonly used metrics include
/// Euclidean distance or Hamming distance"): shard values are 64-bit
/// patterns, distance = popcount(v XOR query).  Distances lie in [0, 64],
/// so ties are everywhere — the unique-id tie-breaking does all the work.
[[nodiscard]] std::vector<Key> score_hamming_shard(const ScalarShard& shard, Value query);
[[nodiscard]] std::vector<std::vector<Key>> score_hamming_shards(
    const std::vector<ScalarShard>& shards, Value query);

/// Applies the paper's footnote-4 distance scaling to pre-scored shards:
/// clears the low `drop_bits` of every rank (ids untouched).  See
/// quantize_rank in data/key.hpp for the approximation guarantee.
[[nodiscard]] std::vector<std::vector<Key>> quantize_scored_shards(
    std::vector<std::vector<Key>> shards, unsigned drop_bits);

/// Scores a vector shard under any metric.
template <MetricFor M>
[[nodiscard]] std::vector<Key> score_vector_shard(const VectorShard& shard, const PointD& query,
                                                  const M& metric) {
  std::vector<Key> keys;
  keys.reserve(shard.points.size());
  for (std::size_t i = 0; i < shard.points.size(); ++i) {
    keys.push_back(Key{encode_distance(metric(shard.points[i], query)), shard.ids[i]});
  }
  return keys;
}

template <MetricFor M>
[[nodiscard]] std::vector<std::vector<Key>> score_vector_shards(
    const std::vector<VectorShard>& shards, const PointD& query, const M& metric) {
  std::vector<std::vector<Key>> out;
  out.reserve(shards.size());
  for (const auto& shard : shards) out.push_back(score_vector_shard(shard, query, metric));
  return out;
}

/// Default scoring: SquaredEuclidean.  The algorithms only compare
/// distances, and ‖·‖₂² induces the same ℓ-NN order as ‖·‖₂ while dropping
/// the per-point sqrt from the hot loop (identical selected ids,
/// test-asserted in tests/test_kernels.cpp).
[[nodiscard]] inline std::vector<Key> score_vector_shard(const VectorShard& shard,
                                                         const PointD& query) {
  return score_vector_shard(shard, query, SquaredEuclidean{});
}
[[nodiscard]] inline std::vector<std::vector<Key>> score_vector_shards(
    const std::vector<VectorShard>& shards, const PointD& query) {
  return score_vector_shards(shards, query, SquaredEuclidean{});
}

/// Builds each shard's ShardIndex (seq/scoring_policy.hpp) once per
/// resident dataset through build_shard_index — one SoA copy per shard;
/// after that, batched scoring never touches PointD.  ScoringPolicy::Brute
/// gives plain SoA shards.
[[nodiscard]] std::vector<ShardIndex> make_shard_indexes(
    const std::vector<VectorShard>& shards, ScoringPolicy policy,
    std::size_t leaf_size = KdRangeIndex::kDefaultLeafSize);

/// Cumulative kd-hybrid traversal counters summed over every tree-indexed
/// shard (brute shards contribute nothing).  Counters accumulate across
/// score_vector_shards_batch calls; pair with reset_tree_stats for
/// per-stanza deltas in the benches.
[[nodiscard]] TreeStats tree_stats(const std::vector<ShardIndex>& indexes);
void reset_tree_stats(const std::vector<ShardIndex>& indexes);

/// Execution knobs for the policy-aware batched scoring step.
struct BatchScoringConfig {
  /// Worker threads: 1 = serial in the calling thread (no pool), 0 =
  /// hardware concurrency, else exactly that many.  Ignored when `pool`
  /// is set.
  std::size_t threads = 1;
  /// Queries per task tile; 0 = auto: a brute-scanned shard's row slabs
  /// each take the whole batch (point-major — one column pass per
  /// register block of queries), and opaque shards (kd-tree, serve
  /// snapshots) tile the batch at ~4 tasks per worker so work
  /// stealing can rebalance uneven shards.
  std::size_t query_block = 0;
  /// Seed for the pool's victim-selection streams (reproducibility only —
  /// results are schedule-independent by construction).  Ignored when
  /// `pool` is set.
  std::uint64_t seed = ThreadPool::kDefaultSeed;
  /// Externally-owned pool to score on, amortizing thread spawn across
  /// batches in a serving loop.  The call waits only for its own tasks
  /// (a per-call ThreadPool::TaskGroup, not a pool-wide barrier), so
  /// several threads may score on one shared pool concurrently — the
  /// KnnService read path does exactly that.
  ThreadPool* pool = nullptr;
  /// Row-slab size for the parallel grid.  A brute-scanned shard with
  /// more rows than this is scored as ⌈rows/threshold⌉ independent row
  /// slabs whose per-slab top-ℓ lists merge into the shard's slot — so one
  /// giant shard no longer serializes its column scans on a single
  /// worker.  0 = auto: about (all shards' scanned rows) ÷ (4 × threads),
  /// at least max(4096, 512·ℓ) rows.  Merging changes no output byte (keys
  /// are globally distinct and each slab's top-ℓ contains every global winner
  /// inside it — fuzzed against the unsplit grid in tests/test_parity.cpp);
  /// only the serial path and opaque shards (kd-trees) stay whole
  /// (column streaming / hierarchical traversal).
  std::size_t shard_split_rows = 0;
};

/// Batched local computation — Algorithm 2's first step on every machine:
/// scores every query against every shard and keeps the shard's local
/// top-ℓ.  Returns [query][shard] → those keys ascending.  Feeding a
/// machine its local top-ℓ instead of all n keys leaves every algorithm's
/// answer unchanged — property-tested for all metrics.
///
/// Policy-aware and optionally parallel: tiles the grid over a
/// work-stealing pool — row slab × whole batch for brute-scanned shards,
/// shard × query block for the rest; every task writes its own pre-sized
/// [query][shard] slots, so the output is byte-identical to the serial
/// brute path regardless of exact policy, thread count, or schedule
/// (fuzzed across paths in tests/test_parity.cpp).
///
/// `skip` (empty = score every machine; else one entry per machine) leaves
/// machine m's slots empty for every query when skip[m] != 0 — an empty
/// slot is a legal empty shard for every selection protocol.  A fault-
/// tolerant caller passes probe_machines(health).skip (fault/health.hpp);
/// the other machines' slots are byte-identical to an unmasked call.
[[nodiscard]] std::vector<std::vector<std::vector<Key>>> score_vector_shards_batch(
    const std::vector<ShardIndex>& indexes, std::span<const PointD> queries, std::uint64_t ell,
    MetricKind kind = MetricKind::SquaredEuclidean, const BatchScoringConfig& config = {},
    std::span<const char> skip = {});

/// Serve-aware batched local scoring: machine m's resident dataset is the
/// live set behind `snapshots[m]` (a SegmentStore frozen view — see
/// src/serve/segment_store.hpp).  Same [query][machine] → local top-ℓ
/// shape, tiling and pool semantics as the ShardIndex overload, so the
/// result feeds run_knn_batch / run_knn unchanged; per machine the keys
/// are byte-identical to scoring a FlatStore rebuilt from that machine's
/// live set (fuzzed in tests/test_serve.cpp).  All snapshots with live
/// points must share the query dimension.  `skip` as in the ShardIndex
/// entry; a skipped machine's snapshot may be null, every other one must
/// not be.
[[nodiscard]] std::vector<std::vector<std::vector<Key>>> score_serve_snapshots_batch(
    std::span<const SnapshotPtr> snapshots, std::span<const PointD> queries,
    std::uint64_t ell, MetricKind kind = MetricKind::SquaredEuclidean,
    const BatchScoringConfig& config = {}, std::span<const char> skip = {});

/// Which distributed ℓ-NN / selection algorithm to run.
enum class KnnAlgo : std::uint8_t {
  DistKnn,      ///< the paper's Algorithm 2 (sampling + Algorithm 1)
  CappedSelect, ///< the paper's §2.2 intermediate: Algorithm 1 directly on
                ///< the kℓ locally-capped points, no sampling — O(log ℓ +
                ///< log k) rounds (the log k the sampling step removes)
  Simple,       ///< the paper's experimental baseline (gather everything)
  SaukasSong,   ///< deterministic weighted-median selection [16]
  BinSearch,    ///< binary search over the distance domain [3, 18]
};

[[nodiscard]] const char* knn_algo_name(KnnAlgo algo);

/// Global result of one distributed run.
struct GlobalRunResult {
  /// The selected keys, globally merged and ascending; size = min(ℓ, n).
  std::vector<Key> keys;
  /// Engine cost report (rounds, messages, bits, compute).
  RunReport report;
  /// Pivot / median / probe iterations of the algorithm's driver loop.
  std::uint32_t iterations = 0;
  /// Algorithm 2 only: sampling attempts, post-prune candidate total,
  /// whether pruning preserved the answer.
  std::uint32_t attempts = 1;
  std::uint64_t candidates = 0;
  bool prune_ok = true;
};

/// Runs `algo` over pre-scored shards (shards.size() machines; shard i is
/// machine i's local input).  `ell` is the paper's ℓ.
[[nodiscard]] GlobalRunResult run_knn(const std::vector<std::vector<Key>>& scored_shards,
                                      std::uint64_t ell, KnnAlgo algo,
                                      const EngineConfig& engine_config,
                                      const KnnConfig& knn_config = {});

/// Outcome of a batched multi-query run.
struct BatchRunResult {
  /// Per-query results in query order.  Each element's `keys`,
  /// `iterations`, `attempts`, `candidates`, `prune_ok` are as run_knn
  /// would return for that query alone; its `report` carries only that
  /// query's round count (traffic/compute are whole-batch, below).
  std::vector<GlobalRunResult> per_query;
  /// Whole-batch engine report: one engine, B queries — setup, scheduling
  /// and warm-up amortize across the batch.
  RunReport report;
};

/// Runs `algo` over a pre-scored query batch (`scored_batch[q][m]` =
/// machine m's keys for query q, e.g. from score_vector_shards_batch) in a
/// single engine run.  All queries must agree on the shard count.
[[nodiscard]] BatchRunResult run_knn_batch(
    const std::vector<std::vector<std::vector<Key>>>& scored_batch, std::uint64_t ell,
    KnnAlgo algo, const EngineConfig& engine_config, const KnnConfig& knn_config = {});

/// Runs plain distributed selection (Algorithm 1) over raw key shards —
/// the ℓ-smallest-points problem of §2.1.
[[nodiscard]] GlobalRunResult run_selection(const std::vector<std::vector<Key>>& key_shards,
                                            std::uint64_t ell,
                                            const EngineConfig& engine_config,
                                            const SelectConfig& select_config = {});

/// Reference answer: the min(ℓ, n) smallest keys across all shards.
[[nodiscard]] std::vector<Key> expected_smallest(const std::vector<std::vector<Key>>& shards,
                                                 std::uint64_t ell);

/// Distributed quantiles — the paper's §1.2 framing ("the ℓ-nearest
/// neighbors problem really boils down to the selection problem") as a
/// first-class API: the φ-quantile of n distributed keys is the
/// ⌈φ·n⌉-th smallest, found by Algorithm 1 in O(log n) rounds.
struct QuantileResult {
  Key value{};                ///< the φ-quantile key
  std::uint64_t rank = 0;     ///< its 1-based rank (= ⌈φ·n⌉)
  std::uint64_t total = 0;    ///< n
  GlobalRunResult run;        ///< cost report (run.keys holds the ℓ prefix)
};

/// φ ∈ (0, 1]; requires at least one key across the shards.
[[nodiscard]] QuantileResult run_quantile(const std::vector<std::vector<Key>>& key_shards,
                                          double phi, const EngineConfig& engine_config,
                                          const SelectConfig& select_config = {});

/// Median = 0.5-quantile (lower median).
[[nodiscard]] inline QuantileResult run_median(const std::vector<std::vector<Key>>& key_shards,
                                               const EngineConfig& engine_config,
                                               const SelectConfig& select_config = {}) {
  return run_quantile(key_shards, 0.5, engine_config, select_config);
}

}  // namespace dknn
