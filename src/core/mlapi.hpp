#pragma once
/// \file mlapi.hpp
/// \brief The machine-learning face of ℓ-NN: distributed classification
///        (majority vote) and regression (mean of targets) — the use cases
///        the paper's introduction motivates (§1: "In the classification
///        problem, one can use the majority of the labels of the K-nearest
///        neighbors... In the regression problem, one can assign the
///        average of the labels").
///
/// Flow per query: score locally → Algorithm 2 picks the global ℓ-NN →
/// each machine ships (key, label/target) for its winners to the leader
/// (≤ ℓ messages total across machines — the winners are exactly ℓ) → the
/// leader votes/averages and broadcasts the prediction.
///
/// Privacy note for the hospitals example: only distances, ids, and the
/// winners' labels ever cross the network — never the feature vectors.

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/dist_knn.hpp"
#include "core/driver.hpp"
#include "data/point.hpp"
#include "sim/engine.hpp"

namespace dknn {

/// One machine's labeled input: scored keys plus id → label.
struct LabeledKeyShard {
  std::vector<Key> scored;
  std::unordered_map<PointId, std::uint32_t> labels;
};

/// One machine's regression input: scored keys plus id → target.
struct TargetKeyShard {
  std::vector<Key> scored;
  std::unordered_map<PointId, double> targets;
};

/// How the leader combines the ℓ winners' labels.
enum class VoteRule : std::uint8_t {
  Majority,         ///< one neighbor, one vote (the paper's §1 description)
  InverseDistance,  ///< weight 1/(distance + ε) — the classic refinement;
                    ///< requires encode_distance-encoded ranks (i.e. shards
                    ///< built by make_labeled_key_shards)
};

struct ClassifyResult {
  std::uint32_t label = 0;       ///< winning label (ties → smallest label)
  std::vector<std::pair<Key, std::uint32_t>> votes;  ///< the ℓ (key, label) pairs
  GlobalRunResult run;           ///< cost report + selected keys
};

struct RegressResult {
  double prediction = 0.0;       ///< mean target of the ℓ-NN
  std::vector<std::pair<Key, double>> contributions;
  GlobalRunResult run;
};

/// Distributed ℓ-NN classification over pre-scored labeled shards.
[[nodiscard]] ClassifyResult classify_distributed(const std::vector<LabeledKeyShard>& shards,
                                                  std::uint64_t ell,
                                                  const EngineConfig& engine_config,
                                                  const KnnConfig& knn_config = {},
                                                  VoteRule rule = VoteRule::Majority);

/// Distributed ℓ-NN regression over pre-scored target shards.
[[nodiscard]] RegressResult regress_distributed(const std::vector<TargetKeyShard>& shards,
                                                std::uint64_t ell,
                                                const EngineConfig& engine_config,
                                                const KnnConfig& knn_config = {});

/// Pre-scored batched classification — the layer every batched classify
/// bottoms out in (KnnService::classify_batch runs exactly
/// score_vector_shards_batch / score_serve_snapshots_batch → this).
/// `scored_batch[q][m]` is machine m's keys for query q and `labels[m]`
/// maps point id → label on machine m (entries for dead or never-selected
/// ids are fine; only winners need one).  Result q equals
/// classify_distributed over the same scored shards; one engine run drives
/// every query, and the whole-batch engine report rides on result 0's
/// `run.report` (later results carry empty reports — the engine ran once,
/// not B times).  The tables are shared-ownership because the lock-free
/// facade read path classifies against its *snapshot's* copy-on-write
/// maps, not the live ones a concurrent insert may be replacing; every
/// `labels[m]` must be non-null.
/// Note: with the SquaredEuclidean default, VoteRule::InverseDistance
/// weights by 1/(‖·‖₂² + ε) — still monotone in distance.
[[nodiscard]] std::vector<ClassifyResult> classify_scored_batch(
    const std::vector<std::vector<std::vector<Key>>>& scored_batch,
    const std::vector<std::shared_ptr<const std::unordered_map<PointId, std::uint32_t>>>& labels,
    std::uint64_t ell, const EngineConfig& engine_config, const KnnConfig& knn_config = {},
    VoteRule rule = VoteRule::Majority);

/// Pre-scored batched regression; `targets[m]` maps point id → target.
[[nodiscard]] std::vector<RegressResult> regress_scored_batch(
    const std::vector<std::vector<std::vector<Key>>>& scored_batch,
    const std::vector<std::shared_ptr<const std::unordered_map<PointId, double>>>& targets,
    std::uint64_t ell, const EngineConfig& engine_config, const KnnConfig& knn_config = {});

/// Convenience: score labeled vector shards against a query under a metric.
template <MetricFor M>
[[nodiscard]] std::vector<LabeledKeyShard> make_labeled_key_shards(
    const std::vector<VectorShard>& shards, const std::vector<std::vector<std::uint32_t>>& labels,
    const PointD& query, const M& metric) {
  DKNN_REQUIRE(shards.size() == labels.size(), "shards/labels must align");
  std::vector<LabeledKeyShard> out(shards.size());
  for (std::size_t m = 0; m < shards.size(); ++m) {
    DKNN_REQUIRE(shards[m].points.size() == labels[m].size(), "points/labels must align");
    out[m].scored = score_vector_shard(shards[m], query, metric);
    for (std::size_t i = 0; i < shards[m].ids.size(); ++i) {
      out[m].labels.emplace(shards[m].ids[i], labels[m][i]);
    }
  }
  return out;
}

/// Convenience: score target vector shards against a query under a metric.
template <MetricFor M>
[[nodiscard]] std::vector<TargetKeyShard> make_target_key_shards(
    const std::vector<VectorShard>& shards, const std::vector<std::vector<double>>& targets,
    const PointD& query, const M& metric) {
  DKNN_REQUIRE(shards.size() == targets.size(), "shards/targets must align");
  std::vector<TargetKeyShard> out(shards.size());
  for (std::size_t m = 0; m < shards.size(); ++m) {
    DKNN_REQUIRE(shards[m].points.size() == targets[m].size(), "points/targets must align");
    out[m].scored = score_vector_shard(shards[m], query, metric);
    for (std::size_t i = 0; i < shards[m].ids.size(); ++i) {
      out[m].targets.emplace(shards[m].ids[i], targets[m][i]);
    }
  }
  return out;
}

/// Default scoring: SquaredEuclidean — same selected neighbors as
/// Euclidean (ordering-equivalent), no sqrt per point.
[[nodiscard]] inline std::vector<LabeledKeyShard> make_labeled_key_shards(
    const std::vector<VectorShard>& shards, const std::vector<std::vector<std::uint32_t>>& labels,
    const PointD& query) {
  return make_labeled_key_shards(shards, labels, query, SquaredEuclidean{});
}
[[nodiscard]] inline std::vector<TargetKeyShard> make_target_key_shards(
    const std::vector<VectorShard>& shards, const std::vector<std::vector<double>>& targets,
    const PointD& query) {
  return make_target_key_shards(shards, targets, query, SquaredEuclidean{});
}

}  // namespace dknn
