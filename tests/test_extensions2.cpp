// Tests for the second batch of extensions: distributed quantiles and
// distance-weighted classification.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "core/driver.hpp"
#include "core/mlapi.hpp"
#include "data/generators.hpp"
#include "rng/rng.hpp"
#include "sim/engine.hpp"

namespace dknn {
namespace {

EngineConfig engine_for(std::uint64_t seed) {
  EngineConfig c;
  c.seed = seed;
  c.measure_compute = false;
  return c;
}

// --- distributed quantiles -------------------------------------------------------

TEST(Quantile, MatchesSortedReference) {
  constexpr std::uint32_t k = 8;
  Rng rng(1);
  auto values = uniform_u64(999, rng);  // odd count exercises rounding
  auto shards = make_scalar_shards(std::move(values), k, PartitionScheme::Random, rng);
  auto keys = score_scalar_shards(shards, 0);

  std::vector<Key> all;
  for (const auto& shard : keys) all.insert(all.end(), shard.begin(), shard.end());
  std::sort(all.begin(), all.end());

  for (double phi : {0.01, 0.1, 0.25, 0.5, 0.9, 0.999, 1.0}) {
    const auto result = run_quantile(keys, phi, engine_for(static_cast<std::uint64_t>(phi * 100)));
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(phi * static_cast<double>(all.size()))));
    EXPECT_EQ(result.rank, std::min<std::uint64_t>(rank, all.size())) << "phi=" << phi;
    EXPECT_EQ(result.value, all[result.rank - 1]) << "phi=" << phi;
    EXPECT_EQ(result.total, all.size());
  }
}

TEST(Quantile, MedianOfKnownSet) {
  std::vector<std::vector<Key>> shards(3);
  // keys 1..9 spread over machines
  for (std::uint64_t i = 1; i <= 9; ++i) shards[i % 3].push_back(Key{i * 10, i});
  const auto result = run_median(shards, engine_for(2));
  EXPECT_EQ(result.rank, 5u);
  EXPECT_EQ(result.value.rank, 50u);  // the 5th smallest of 10..90
}

TEST(Quantile, RejectsBadPhi) {
  std::vector<std::vector<Key>> shards(1);
  shards[0] = {Key{1, 1}};
  EXPECT_THROW((void)run_quantile(shards, 0.0, engine_for(3)), InvariantError);
  EXPECT_THROW((void)run_quantile(shards, 1.5, engine_for(3)), InvariantError);
}

TEST(Quantile, RejectsEmptyDataset) {
  std::vector<std::vector<Key>> shards(4);
  EXPECT_THROW((void)run_quantile(shards, 0.5, engine_for(4)), InvariantError);
}

TEST(Quantile, TinyDataset) {
  std::vector<std::vector<Key>> shards(2);
  shards[1] = {Key{42, 1}};
  const auto result = run_quantile(shards, 0.5, engine_for(5));
  EXPECT_EQ(result.value, (Key{42, 1}));
  EXPECT_EQ(result.rank, 1u);
}

// --- distance-weighted voting ----------------------------------------------------------

TEST(VoteRule, InverseDistanceBeatsMajorityWhenFarVotesDominate) {
  // Two far neighbors of label 7 vs one very close neighbor of label 3.
  std::vector<LabeledKeyShard> shards(2);
  shards[0].scored = {Key{encode_distance(0.01), 1}, Key{encode_distance(50.0), 2}};
  shards[0].labels = {{1, 3u}, {2, 7u}};
  shards[1].scored = {Key{encode_distance(55.0), 3}};
  shards[1].labels = {{3, 7u}};

  const auto majority =
      classify_distributed(shards, 3, engine_for(1), {}, VoteRule::Majority);
  EXPECT_EQ(majority.label, 7u);  // 2 votes beat 1

  const auto weighted =
      classify_distributed(shards, 3, engine_for(1), {}, VoteRule::InverseDistance);
  EXPECT_EQ(weighted.label, 3u);  // 1/0.01 >> 1/50 + 1/55
}

TEST(VoteRule, AgreeWhenAllDistancesEqual) {
  std::vector<LabeledKeyShard> shards(1);
  shards[0].scored = {Key{encode_distance(2.0), 1}, Key{encode_distance(2.0), 2},
                      Key{encode_distance(2.0), 3}};
  shards[0].labels = {{1, 5u}, {2, 5u}, {3, 9u}};
  const auto majority =
      classify_distributed(shards, 3, engine_for(2), {}, VoteRule::Majority);
  const auto weighted =
      classify_distributed(shards, 3, engine_for(2), {}, VoteRule::InverseDistance);
  EXPECT_EQ(majority.label, 5u);
  EXPECT_EQ(weighted.label, 5u);
}

TEST(VoteRule, ZeroDistanceDoesNotExplode) {
  // A neighbor at distance exactly 0 (query == training point): the epsilon
  // keeps the weight finite and that label wins.
  std::vector<LabeledKeyShard> shards(1);
  shards[0].scored = {Key{encode_distance(0.0), 1}, Key{encode_distance(1.0), 2},
                      Key{encode_distance(1.0), 3}};
  shards[0].labels = {{1, 4u}, {2, 8u}, {3, 8u}};
  const auto weighted =
      classify_distributed(shards, 3, engine_for(3), {}, VoteRule::InverseDistance);
  EXPECT_EQ(weighted.label, 4u);
}

TEST(VoteRule, WeightedOnGaussianMixtureStillAccurate) {
  Rng rng(20);
  ClusterSpec spec;
  spec.dim = 2;
  spec.clusters = 3;
  spec.center_box = 80.0;
  spec.spread = 2.0;
  const GaussianMixture mixture(spec, rng);
  auto train = mixture.sample(400, rng);
  std::vector<PointD> points;
  for (const auto& lp : train) points.push_back(lp.x);
  auto shards = make_vector_shards(points, 4, PartitionScheme::Random, rng);
  std::vector<std::vector<std::uint32_t>> labels(4);
  std::map<std::vector<double>, std::uint32_t> by_coords;
  for (const auto& lp : train) by_coords[lp.x.coords] = lp.label;
  for (std::size_t m = 0; m < 4; ++m) {
    for (const auto& p : shards[m].points) labels[m].push_back(by_coords.at(p.coords));
  }
  Rng test_rng(21);
  auto test = mixture.sample(20, test_rng);
  int correct = 0;
  for (std::size_t q = 0; q < test.size(); ++q) {
    auto keyed = make_labeled_key_shards(shards, labels, test[q].x, EuclideanMetric{});
    const auto result =
        classify_distributed(keyed, 9, engine_for(q), {}, VoteRule::InverseDistance);
    correct += (result.label == test[q].label);
  }
  EXPECT_GE(correct, 18);
}

}  // namespace
}  // namespace dknn
