// Tests for the live serving subsystem (src/serve/): SegmentStore
// insert/erase/seal semantics, snapshot isolation, compaction (including
// the stale-victim abort), the epoch-keyed cache of a one-machine live
// facade, the serve-aware driver/mlapi entry points — and the anchor of the
// whole subsystem, a seeded mutation fuzz that interleaves
// insert/delete/compact/query and asserts byte-identical results against a
// single FlatStore rebuilt from the live set at that epoch, across all
// four metrics, all scoring policies, and scalar-forced plus dispatched
// kernel ISAs (≥500 interleaved trials).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/driver.hpp"
#include "core/knn_service.hpp"
#include "core/mlapi.hpp"
#include "data/generators.hpp"
#include "data/kernels.hpp"
#include "data/simd/dispatch.hpp"
#include "parity_support.hpp"
#include "rng/rng.hpp"
#include "serve/compactor.hpp"
#include "serve/segment_store.hpp"
#include "sim/thread_pool.hpp"
#include "support/panic.hpp"

namespace dknn {
namespace {

using testing_support::expect_same_keys;

constexpr MetricKind kAllKinds[] = {MetricKind::Euclidean, MetricKind::SquaredEuclidean,
                                    MetricKind::Manhattan, MetricKind::Chebyshev};

struct LivePoint {
  PointId id = 0;
  PointD point;
};

/// The oracle every serve query is held to: one FlatStore rebuilt from the
/// live set, scored by the fused kernel.
std::vector<Key> oracle_top_ell(const std::vector<LivePoint>& live, const PointD& query,
                                std::size_t ell, MetricKind kind) {
  std::vector<PointD> points;
  std::vector<PointId> ids;
  points.reserve(live.size());
  ids.reserve(live.size());
  for (const LivePoint& lp : live) {
    points.push_back(lp.point);
    ids.push_back(lp.id);
  }
  const FlatStore store(points, ids);
  return fused_top_ell(store, query, ell, kind);
}

/// Fills a store — a SegmentStore or a live KnnService — with `count`
/// fresh uniform points (ids first_id..).
template <typename Store>
std::vector<LivePoint> seed_store(Store& store, std::size_t count, std::size_t dim,
                                  PointId first_id, Rng& rng) {
  std::vector<LivePoint> live;
  live.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    LivePoint lp{first_id + i, uniform_points(1, dim, 50.0, rng)[0]};
    store.insert(lp.point, lp.id);
    live.push_back(std::move(lp));
  }
  return live;
}

// --- SegmentStore basics ----------------------------------------------------

TEST(SegmentStore, InsertSealEraseLifecycle) {
  Rng rng(1);
  SegmentStore store(3, ServeConfig{.seal_threshold = 8, .policy = ScoringPolicy::Brute});
  EXPECT_EQ(store.live_points(), 0u);
  EXPECT_EQ(store.segment_count(), 0u);
  const std::uint64_t empty_epoch = store.epoch();

  auto live = seed_store(store, 20, 3, 1, rng);
  EXPECT_EQ(store.live_points(), 20u);
  // 20 inserts at threshold 8 → two sealed segments + a 4-point delta.
  EXPECT_EQ(store.segment_count(), 2u);
  EXPECT_GT(store.epoch(), empty_epoch);
  EXPECT_TRUE(store.contains(7));
  EXPECT_FALSE(store.contains(777));

  // Erase one delta point and one sealed point.
  ASSERT_TRUE(store.erase(20).has_value());  // delta resident
  ASSERT_TRUE(store.erase(3).has_value());   // sealed resident → tombstone
  EXPECT_EQ(store.live_points(), 18u);
  EXPECT_EQ(store.dead_rows(), 1u);  // only the sealed erase tombstones
  EXPECT_FALSE(store.contains(3));
  EXPECT_FALSE(store.erase(3).has_value());    // already dead
  EXPECT_FALSE(store.erase(999).has_value());  // never existed

  // Forced seal flushes the remaining delta.
  store.seal();
  EXPECT_EQ(store.segment_count(), 3u);
  EXPECT_EQ(store.live_points(), 18u);
  EXPECT_EQ(store.seal(), store.epoch());  // empty-delta seal: no-op
}

TEST(SegmentStore, RejectsDuplicateLiveIdsAndDimensionMismatch) {
  Rng rng(2);
  SegmentStore store(2, ServeConfig{.seal_threshold = 4});
  store.insert(uniform_points(1, 2, 9.0, rng)[0], 42);
  EXPECT_THROW(store.insert(uniform_points(1, 2, 9.0, rng)[0], 42), InvariantError);
  EXPECT_THROW(store.insert(uniform_points(1, 3, 9.0, rng)[0], 43), InvariantError);
  // After deletion the id may be reused (delete + re-insert), including
  // when the old row is a tombstone in a sealed segment.
  store.seal();
  ASSERT_TRUE(store.erase(42).has_value());
  const PointD reborn = uniform_points(1, 2, 9.0, rng)[0];
  store.insert(reborn, 42);
  EXPECT_TRUE(store.contains(42));
  const auto keys = snapshot_top_ell(*store.snapshot(), reborn, 1, MetricKind::Euclidean);
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0].id, 42u);
}

TEST(SegmentStore, SnapshotsAreImmutableUnderMutation) {
  Rng rng(3);
  SegmentStore store(2, ServeConfig{.seal_threshold = 8});
  auto live = seed_store(store, 12, 2, 1, rng);
  const SnapshotPtr before = store.snapshot();
  const auto frozen_live = live;
  const PointD query = uniform_points(1, 2, 50.0, rng)[0];
  const auto frozen_answer = snapshot_top_ell(*before, query, 6, MetricKind::Euclidean);

  // Mutate heavily: deletes (tombstoning rows the old snapshot still
  // references), inserts, a seal, and a compaction.
  ASSERT_TRUE(store.erase(frozen_answer[0].id).has_value());
  ASSERT_TRUE(store.erase(frozen_answer[1].id).has_value());
  seed_store(store, 10, 2, 100, rng);
  store.seal();
  ThreadPool pool(2);
  Compactor compactor(store, pool,
                      CompactionConfig{.max_dead_fraction = 0.0, .min_segment_points = 1 << 20});
  compactor.maybe_schedule();
  compactor.drain();

  // The old snapshot still answers for the old live set, byte-for-byte.
  for (const MetricKind kind : kAllKinds) {
    expect_same_keys(oracle_top_ell(frozen_live, query, 6, kind),
                     snapshot_top_ell(*before, query, 6, kind), metric_kind_name(kind));
  }
  EXPECT_TRUE(before->contains(frozen_answer[0].id));
  EXPECT_FALSE(store.contains(frozen_answer[0].id));
}

// --- compaction -------------------------------------------------------------

TEST(Compaction, MergesSmallSegmentsAndDropsTombstones) {
  Rng rng(4);
  SegmentStore store(2, ServeConfig{.seal_threshold = 8, .policy = ScoringPolicy::Auto});
  auto live = seed_store(store, 32, 2, 1, rng);
  store.seal();
  EXPECT_EQ(store.segment_count(), 4u);
  for (const PointId id : {2u, 9u, 10u, 17u}) {
    ASSERT_TRUE(store.erase(id).has_value());
    live.erase(std::find_if(live.begin(), live.end(),
                            [id](const LivePoint& lp) { return lp.id == id; }));
  }
  EXPECT_EQ(store.dead_rows(), 4u);

  const CompactionConfig cfg{.max_dead_fraction = 0.0, .min_segment_points = 1 << 20,
                             .max_victims = 8};
  EXPECT_GT(store.compaction_debt(cfg), 0u);
  ThreadPool pool(2);
  Compactor compactor(store, pool, cfg);
  ASSERT_TRUE(compactor.maybe_schedule());
  compactor.drain();
  EXPECT_EQ(compactor.stats().installed, 1u);
  EXPECT_EQ(compactor.stats().aborted, 0u);
  EXPECT_EQ(store.segment_count(), 1u);  // four segments merged into one
  EXPECT_EQ(store.dead_rows(), 0u);      // tombstones dropped
  EXPECT_EQ(store.live_points(), live.size());
  EXPECT_EQ(store.compaction_debt(cfg), 0u);

  const PointD query = uniform_points(1, 2, 50.0, rng)[0];
  for (const MetricKind kind : kAllKinds) {
    expect_same_keys(oracle_top_ell(live, query, 10, kind),
                     snapshot_top_ell(*store.snapshot(), query, 10, kind),
                     metric_kind_name(kind));
  }
}

TEST(Compaction, StaleVictimAbortsAndNeverResurrectsDeletes) {
  Rng rng(5);
  SegmentStore store(2, ServeConfig{.seal_threshold = 8});
  seed_store(store, 16, 2, 1, rng);
  ASSERT_TRUE(store.erase(1).has_value());  // make segment 1 a victim

  const CompactionConfig cfg{.max_dead_fraction = 0.0, .min_segment_points = 1 << 20,
                             .max_victims = 8};
  auto plan = store.plan_compaction(cfg);
  ASSERT_FALSE(plan.empty());
  // A delete lands on a victim between plan and install.
  ASSERT_TRUE(store.erase(2).has_value());
  auto merged = SegmentStore::merge_segments(plan.victims, store.config());
  ASSERT_NE(merged, nullptr);
  EXPECT_FALSE(store.install_compaction(plan, merged));
  // The store is untouched: id 2 stays deleted, nothing was swapped.
  EXPECT_FALSE(store.contains(2));
  EXPECT_EQ(store.live_points(), 14u);

  // Re-planning against the current state installs fine.
  plan = store.plan_compaction(cfg);
  merged = SegmentStore::merge_segments(plan.victims, store.config());
  EXPECT_TRUE(store.install_compaction(plan, merged));
  EXPECT_FALSE(store.contains(2));
  EXPECT_EQ(store.live_points(), 14u);
  EXPECT_EQ(store.dead_rows(), 0u);
}

TEST(Compaction, LoneCleanVictimIsNeverPlannedEvenAfterCap) {
  Rng rng(13);
  SegmentStore store(2, ServeConfig{.seal_threshold = 8});
  seed_store(store, 16, 2, 1, rng);  // two clean 8-point segments
  ASSERT_EQ(store.segment_count(), 2u);
  // max_victims = 1 truncates the two-victim plan to a single clean
  // segment — which must then be dropped, not rewritten: installing a
  // byte-identical replacement would publish an epoch (flushing caches)
  // and re-plan the same round forever.
  const CompactionConfig capped{.max_dead_fraction = 0.0, .min_segment_points = 1 << 20,
                                .max_victims = 1};
  EXPECT_TRUE(store.plan_compaction(capped).empty());
  // With room for both victims the merge is real progress and proceeds.
  const CompactionConfig roomy{.max_dead_fraction = 0.0, .min_segment_points = 1 << 20,
                               .max_victims = 4};
  EXPECT_FALSE(store.plan_compaction(roomy).empty());
}

// --- degenerate segments (the serve half of the KdRangeIndex sweep) ---------

TEST(SegmentStoreDegenerate, FullyTombstonedTreeSegment) {
  Rng rng(6);
  // Tree policy with a tiny leaf: the sealed segment carries a KdRangeIndex.
  SegmentStore store(2, ServeConfig{.seal_threshold = 16, .policy = ScoringPolicy::Tree,
                                    .leaf_size = 4});
  auto live = seed_store(store, 16, 2, 1, rng);
  ASSERT_EQ(store.segment_count(), 1u);
  ASSERT_NE(store.snapshot()->segments[0].data->tree, nullptr);
  auto delta = seed_store(store, 4, 2, 100, rng);

  // Delete every point of the sealed segment: 100 % tombstones.
  for (PointId id = 1; id <= 16; ++id) ASSERT_TRUE(store.erase(id).has_value());
  const SnapshotPtr snap = store.snapshot();
  EXPECT_EQ(snap->live_points, 4u);
  EXPECT_EQ(snap->segments[0].live(), 0u);
  EXPECT_TRUE(snap->segments[0].live_runs->empty());

  const PointD query = uniform_points(1, 2, 50.0, rng)[0];
  for (const MetricKind kind : kAllKinds) {
    expect_same_keys(oracle_top_ell(delta, query, 8, kind),
                     snapshot_top_ell(*snap, query, 8, kind), metric_kind_name(kind));
  }

  // Compaction drops the dead segment entirely (nothing live to merge).
  ThreadPool pool(1);
  Compactor compactor(store, pool, CompactionConfig{.max_dead_fraction = 0.5});
  ASSERT_TRUE(compactor.maybe_schedule());
  compactor.drain();
  EXPECT_EQ(compactor.stats().installed, 1u);
  EXPECT_EQ(store.segment_count(), 0u);
  EXPECT_EQ(store.live_points(), 4u);  // the delta never left
  for (const MetricKind kind : kAllKinds) {
    expect_same_keys(oracle_top_ell(delta, query, 8, kind),
                     snapshot_top_ell(*store.snapshot(), query, 8, kind),
                     metric_kind_name(kind));
  }
}

// --- tree counters across compaction ----------------------------------------

// Pins the ServiceStats::tree / SegmentStore::tree_stats contract: the
// counters are a monotone lifetime total.  Compaction banks retired
// segments' traversal counters into the store-level base before the
// install unpublishes them, so totals never shrink — under concurrent
// query load included.
TEST(SegmentStoreCompaction, TreeStatsAreMonotoneAcrossInstalls) {
  Rng rng(17);
  SegmentStore store(3, ServeConfig{.seal_threshold = 32, .policy = ScoringPolicy::Tree,
                                    .leaf_size = 8});
  auto live = seed_store(store, 96, 3, 1, rng);  // three sealed tree segments
  ASSERT_EQ(store.segment_count(), 3u);

  const auto queries = uniform_points(16, 3, 50.0, rng);
  const auto run_queries = [&] {
    const SnapshotPtr snap = store.snapshot();
    for (const PointD& q : queries) {
      (void)snapshot_top_ell(*snap, q, 8, MetricKind::SquaredEuclidean);
    }
  };

  run_queries();
  const TreeStats before = store.tree_stats();
  EXPECT_GT(before.queries, 0u);
  EXPECT_GT(before.nodes_visited, 0u);

  // Tombstone rows in every segment, then compact while a reader keeps
  // traversing the published trees.
  for (PointId id = 1; id <= 40; ++id) ASSERT_TRUE(store.erase(id).has_value());
  ThreadPool pool(2);
  Compactor compactor(store, pool,
                      CompactionConfig{.max_dead_fraction = 0.1, .min_segment_points = 128});
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) run_queries();
  });
  ASSERT_TRUE(compactor.maybe_schedule());
  compactor.drain();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  ASSERT_GE(compactor.stats().installed, 1u);

  // The retired segments' counters were banked into the store base, so the
  // lifetime totals kept every pre-compaction traversal.
  const TreeStats after = store.tree_stats();
  EXPECT_GE(after.queries, before.queries);
  EXPECT_GE(after.nodes_visited, before.nodes_visited);
  EXPECT_GE(after.leaves_scored, before.leaves_scored);
  EXPECT_GE(after.points_scored, before.points_scored);

  // Counters keep accumulating on top of the banked base afterwards.
  run_queries();
  const TreeStats later = store.tree_stats();
  EXPECT_GT(later.queries, after.queries);

  // reset_tree_stats zeroes the banked base too, not just live segments.
  store.reset_tree_stats();
  const TreeStats reset = store.tree_stats();
  EXPECT_EQ(reset.queries, 0u);
  EXPECT_EQ(reset.nodes_visited, 0u);
}

// --- the mutation fuzz (the subsystem's parity anchor) ----------------------

TEST(ServeFuzz, InterleavedMutationsMatchRebuiltOracle) {
  constexpr ScoringPolicy kPolicies[] = {ScoringPolicy::Brute, ScoringPolicy::Tree,
                                         ScoringPolicy::Auto};
  std::uint64_t trials = 0;
  for (const std::uint64_t seed : {11ULL, 23ULL, 37ULL}) {
    for (const ScoringPolicy policy : kPolicies) {
      // forced = 0 runs whatever ISA dispatch picked; forced = 1 pins the
      // scalar reference.  On AVX hardware that covers both ends; the CI
      // force-scalar and scalar-only legs cover the env-var path.
      for (int forced = 0; forced < 2; ++forced) {
        std::optional<simd::ScopedForceIsa> pin;
        if (forced == 1) pin.emplace(simd::Isa::Scalar);
        Rng rng(seed * 1000 + static_cast<std::uint64_t>(policy) * 10 +
                static_cast<std::uint64_t>(forced));
        const std::size_t dim = 1 + rng.below(5);
        const std::string label =
            "seed=" + std::to_string(seed) + " policy=" + scoring_policy_name(policy) +
            " forced=" + std::to_string(forced) + " dim=" + std::to_string(dim);

        SegmentStore store(
            dim, ServeConfig{.seal_threshold = 24, .policy = policy, .leaf_size = 8});
        ThreadPool pool(2, seed);
        Compactor compactor(
            store, pool,
            CompactionConfig{.max_dead_fraction = 0.2, .min_segment_points = 16,
                             .max_victims = 3});
        std::vector<LivePoint> live;
        std::vector<PointId> freed;
        PointId next_id = 1;

        for (int step = 0; step < 90; ++step) {
          const std::uint64_t op = rng.below(100);
          if (op < 40) {
            // Insert: fresh id, occasionally a freed id (re-insert over a
            // tombstone) or a duplicate of a live point's coordinates
            // (stress the tie-break).
            PointId id = next_id++;
            if (!freed.empty() && rng.bernoulli(0.3)) {
              id = freed.back();
              freed.pop_back();
              --next_id;
            }
            PointD point = (!live.empty() && rng.bernoulli(0.15))
                               ? live[rng.below(live.size())].point
                               : uniform_points(1, dim, 50.0, rng)[0];
            store.insert(point, id);
            live.push_back(LivePoint{id, std::move(point)});
          } else if (op < 55 && !live.empty()) {
            const std::size_t victim = rng.below(live.size());
            ASSERT_TRUE(store.erase(live[victim].id).has_value()) << label;
            freed.push_back(live[victim].id);
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
          } else if (op < 62) {
            store.seal();
          } else if (op < 72) {
            compactor.maybe_schedule();
            compactor.drain();  // deterministic interleaving for the fuzz
          } else {
            const PointD query = uniform_points(1, dim, 50.0, rng)[0];
            const std::size_t ell = 1 + rng.below(20);
            const SnapshotPtr snap = store.snapshot();
            ASSERT_EQ(snap->live_points, live.size()) << label;
            for (const MetricKind kind : kAllKinds) {
              ASSERT_NO_FATAL_FAILURE(expect_same_keys(
                  oracle_top_ell(live, query, ell, kind),
                  snapshot_top_ell(*snap, query, ell, kind),
                  label + " step=" + std::to_string(step) + " " + metric_kind_name(kind)))
                  << label << " step=" << step;
              ++trials;
            }
          }
        }
        // The aggregate bookkeeping must agree with the shadow copy too.
        ASSERT_EQ(store.live_points(), live.size()) << label;
        for (const LivePoint& lp : live) {
          ASSERT_TRUE(store.contains(lp.id)) << label << " id=" << lp.id;
        }
      }
    }
  }
  // The acceptance bar: at least 500 interleaved query trials.
  EXPECT_GE(trials, 500u);
}

// --- one-store serving through the facade ----------------------------------
//
// A live KnnService over one machine is the one-store serving setup: the
// answer is the store's top-ℓ, so the rebuilt-store oracle holds byte for
// byte.

TEST(ServeFacade, OneMachineCacheHitsAreByteIdenticalAndEpochKeyed) {
  Rng rng(7);
  KnnService service = KnnServiceBuilder()
                           .machines(1)
                           .ell(5)
                           .metric(MetricKind::Euclidean)
                           .dim(3)
                           .live()
                           .seal_threshold(16)
                           .coalesce(4)
                           .cache_capacity(64)
                           .build();
  auto live = seed_store(service, 40, 3, 1, rng);
  const PointD query = uniform_points(1, 3, 50.0, rng)[0];

  const auto first = service.query(query);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.epoch, service.snapshot_epoch());
  expect_same_keys(oracle_top_ell(live, query, 5, MetricKind::Euclidean), first.keys,
                   "facade miss");

  const auto second = service.query(query);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.epoch, first.epoch);
  expect_same_keys(first.keys, second.keys, "facade hit");

  // Any mutation advances the epoch and invalidates the cache; the fresh
  // answer reflects the deletion of the former nearest neighbor.
  const PointId nearest = first.keys[0].id;
  ASSERT_TRUE(service.erase(nearest).has_value());
  live.erase(std::find_if(live.begin(), live.end(),
                          [nearest](const LivePoint& lp) { return lp.id == nearest; }));
  const auto third = service.query(query);
  EXPECT_FALSE(third.cache_hit);
  EXPECT_GT(third.epoch, second.epoch);
  EXPECT_NE(third.keys[0].id, nearest);
  expect_same_keys(oracle_top_ell(live, query, 5, MetricKind::Euclidean), third.keys,
                   "facade after erase");

  const auto stats = service.stats();
  EXPECT_EQ(stats.queries, 3u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 2u);
  EXPECT_GE(stats.cache_flushes, 1u);
}

TEST(ServeFacade, OneMachineQueryBatchMatchesOracle) {
  Rng rng(8);
  KnnService service =
      KnnServiceBuilder()
          .machines(1)
          .ell(7)
          .metric(MetricKind::Manhattan)
          .dim(2)
          .policy(ScoringPolicy::Tree)
          .leaf_size(4)
          .live()
          .seal_threshold(8)
          .build();  // cache disabled
  auto live = seed_store(service, 30, 2, 1, rng);
  ASSERT_TRUE(service.erase(5).has_value());
  live.erase(std::find_if(live.begin(), live.end(),
                          [](const LivePoint& lp) { return lp.id == 5; }));

  const auto queries = uniform_points(9, 2, 50.0, rng);
  const BatchQueryResult results = service.query_batch(queries);
  ASSERT_EQ(results.per_query.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    EXPECT_FALSE(results.per_query[q].cache_hit);
    EXPECT_EQ(results.per_query[q].batch_size, queries.size());
    expect_same_keys(oracle_top_ell(live, queries[q], 7, MetricKind::Manhattan),
                     results.per_query[q].keys, "batch query " + std::to_string(q));
  }
  EXPECT_EQ(service.stats().cache_hits, 0u);
  EXPECT_EQ(service.stats().batches, 1u);
}

// --- serve-aware driver + mlapi entry points --------------------------------

TEST(ServeDriver, SnapshotScoringFeedsRunKnnBatchLikeRebuiltShards) {
  Rng rng(9);
  constexpr std::size_t kMachines = 3;
  std::vector<std::unique_ptr<SegmentStore>> stores;
  std::vector<std::vector<LivePoint>> live(kMachines);
  std::vector<VectorShard> rebuilt(kMachines);
  for (std::size_t m = 0; m < kMachines; ++m) {
    stores.push_back(std::make_unique<SegmentStore>(
        2, ServeConfig{.seal_threshold = 16, .policy = ScoringPolicy::Auto}));
    live[m] = seed_store(*stores[m], 40, 2, 1000 * (m + 1), rng);
    // Churn: drop a few points per machine.
    for (int d = 0; d < 5; ++d) {
      const std::size_t victim = rng.below(live[m].size());
      ASSERT_TRUE(stores[m]->erase(live[m][victim].id).has_value());
      live[m].erase(live[m].begin() + static_cast<std::ptrdiff_t>(victim));
    }
    for (const LivePoint& lp : live[m]) {
      rebuilt[m].points.push_back(lp.point);
      rebuilt[m].ids.push_back(lp.id);
    }
  }
  std::vector<SnapshotPtr> snapshots;
  for (const auto& store : stores) snapshots.push_back(store->snapshot());
  const auto queries = uniform_points(6, 2, 50.0, rng);
  const std::uint64_t ell = 12;

  const auto indexes = make_shard_indexes(rebuilt, ScoringPolicy::Brute);
  const auto expected = score_vector_shards_batch(indexes, queries, ell, MetricKind::Euclidean);
  const auto serve = score_serve_snapshots_batch(snapshots, queries, ell, MetricKind::Euclidean);
  // Parallel tiling must not change a byte either.
  const auto serve_parallel = score_serve_snapshots_batch(
      snapshots, queries, ell, MetricKind::Euclidean, BatchScoringConfig{.threads = 3});
  ASSERT_EQ(serve.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    ASSERT_EQ(serve[q].size(), kMachines);
    for (std::size_t m = 0; m < kMachines; ++m) {
      expect_same_keys(expected[q][m], serve[q][m], "serve scoring");
      expect_same_keys(expected[q][m], serve_parallel[q][m], "serve scoring parallel");
    }
  }

  EngineConfig engine;
  engine.seed = 17;
  const auto batch = run_knn_batch(serve, ell, KnnAlgo::DistKnn, engine);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    expect_same_keys(expected_smallest(expected[q], ell), batch.per_query[q].keys,
                     "serve knn batch");
  }
}

// The serve-side classify / regress composition: snapshot scoring +
// the shared-table scored-batch stage (what a live KnnService runs).
TEST(ServeMlapi, ClassifyServeBatchMatchesClassifyDistributed) {
  Rng rng(10);
  constexpr std::size_t kMachines = 2;
  std::vector<std::unique_ptr<SegmentStore>> stores;
  std::vector<std::vector<LivePoint>> live(kMachines);
  std::vector<std::unordered_map<PointId, std::uint32_t>> labels(kMachines);
  for (std::size_t m = 0; m < kMachines; ++m) {
    stores.push_back(std::make_unique<SegmentStore>(2, ServeConfig{.seal_threshold = 8}));
    live[m] = seed_store(*stores[m], 25, 2, 500 * (m + 1), rng);
    const std::size_t victim = rng.below(live[m].size());
    ASSERT_TRUE(stores[m]->erase(live[m][victim].id).has_value());
    live[m].erase(live[m].begin() + static_cast<std::ptrdiff_t>(victim));
    for (const LivePoint& lp : live[m]) {
      labels[m][lp.id] = static_cast<std::uint32_t>(lp.id % 3);
    }
  }
  std::vector<SnapshotPtr> snapshots;
  for (const auto& store : stores) snapshots.push_back(store->snapshot());
  const auto queries = uniform_points(4, 2, 50.0, rng);

  EngineConfig engine;
  engine.seed = 5;
  using LabelTable = std::unordered_map<PointId, std::uint32_t>;
  std::vector<std::shared_ptr<const LabelTable>> shared_labels;
  for (const LabelTable& table : labels) {
    shared_labels.push_back(std::make_shared<const LabelTable>(table));
  }
  const auto serve = classify_scored_batch(score_serve_snapshots_batch(snapshots, queries, 9),
                                           shared_labels, 9, engine);
  ASSERT_EQ(serve.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    // Reference: classify_distributed over shards rebuilt from the live
    // sets, scored under the same (SquaredEuclidean) default.
    std::vector<LabeledKeyShard> keyed(kMachines);
    for (std::size_t m = 0; m < kMachines; ++m) {
      VectorShard shard;
      for (const LivePoint& lp : live[m]) {
        shard.points.push_back(lp.point);
        shard.ids.push_back(lp.id);
      }
      keyed[m].scored = score_vector_shard(shard, queries[q]);
      keyed[m].labels = labels[m];
    }
    const auto single = classify_distributed(keyed, 9, engine);
    EXPECT_EQ(serve[q].label, single.label) << "query " << q;
    ASSERT_EQ(serve[q].votes.size(), single.votes.size());
    for (std::size_t i = 0; i < single.votes.size(); ++i) {
      EXPECT_EQ(serve[q].votes[i].first.id, single.votes[i].first.id);
      EXPECT_EQ(serve[q].votes[i].second, single.votes[i].second);
    }
  }
  EXPECT_GT(serve[0].run.report.rounds, 0u);
}

TEST(ServeMlapi, RegressServeBatchAveragesLiveTargets) {
  Rng rng(12);
  SegmentStore store(2, ServeConfig{.seal_threshold = 8});
  auto live = seed_store(store, 20, 2, 1, rng);
  std::vector<std::unordered_map<PointId, double>> targets(1);
  for (const LivePoint& lp : live) targets[0][lp.id] = static_cast<double>(lp.id) * 0.5;
  const std::vector<SnapshotPtr> snapshots = {store.snapshot()};
  const auto queries = uniform_points(3, 2, 50.0, rng);

  EngineConfig engine;
  engine.seed = 6;
  const std::vector<std::shared_ptr<const std::unordered_map<PointId, double>>> shared_targets = {
      std::make_shared<const std::unordered_map<PointId, double>>(targets[0])};
  const auto results = regress_scored_batch(score_serve_snapshots_batch(snapshots, queries, 4),
                                            shared_targets, 4, engine);
  ASSERT_EQ(results.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto winners = oracle_top_ell(live, queries[q], 4, MetricKind::SquaredEuclidean);
    double sum = 0.0;
    for (const Key& key : winners) sum += static_cast<double>(key.id) * 0.5;
    EXPECT_DOUBLE_EQ(results[q].prediction, sum / static_cast<double>(winners.size()))
        << "query " << q;
  }
}

TEST(SegmentStoreTest, DeltaMirrorSyncsIncrementally) {
  // The O(d)-per-insert contract of the incremental delta mirror: 1000
  // inserts below the seal threshold copy exactly 1000·d·sizeof(double)
  // coordinate bytes in total (one row each, never the whole delta), a
  // delta erase triggers exactly one O(delta·d) regeneration, and
  // subsequent inserts go back to one row each.
  const std::size_t dim = 8;
  ServeConfig config;
  config.seal_threshold = 4096;  // everything stays in the delta
  SegmentStore store(dim, config);
  Rng rng(99);
  const std::size_t n = 1000;
  const std::vector<PointD> points = uniform_points(n, dim, 100.0, rng);
  for (std::size_t i = 0; i < n; ++i) {
    store.insert(points[i], static_cast<PointId>(i + 1));
  }
  const std::uint64_t row_bytes = dim * sizeof(double);
  EXPECT_EQ(store.mirror_copied_bytes(), n * row_bytes);

  // Reads see every delta row through the strided shared-view store.
  {
    const SnapshotPtr snap = store.snapshot();
    ASSERT_EQ(snap->segments.size(), 1u);
    EXPECT_EQ(snap->segments[0].data->store().size(), n);
    const std::vector<Key> keys = snapshot_top_ell(*snap, points[0], 1,
                                                   MetricKind::SquaredEuclidean);
    ASSERT_EQ(keys.size(), 1u);
    EXPECT_EQ(keys[0].id, 1u);
  }

  // A delta erase (swap-remove) invalidates the frozen prefix: one full
  // regeneration of the surviving n−1 rows, not one per later publish.
  ASSERT_TRUE(store.erase(1).has_value());
  const std::uint64_t after_erase = store.mirror_copied_bytes();
  EXPECT_EQ(after_erase, n * row_bytes + (n - 1) * row_bytes);

  for (std::size_t i = 0; i < 10; ++i) {
    store.insert(points[i], static_cast<PointId>(n + i + 1));
  }
  EXPECT_EQ(store.mirror_copied_bytes(), after_erase + 10 * row_bytes);

  // The mirror stayed correct through the churn: id 1 is gone, the
  // re-inserted copy of its point answers under the fresh id.
  const std::vector<Key> keys =
      snapshot_top_ell(*store.snapshot(), points[0], 1, MetricKind::SquaredEuclidean);
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0].id, static_cast<PointId>(n + 1));
  EXPECT_EQ(keys[0].rank, 0u);
}

}  // namespace
}  // namespace dknn
