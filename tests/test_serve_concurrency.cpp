// Concurrency tests for the live serving subsystem's snapshot layer: a
// held SegmentStore snapshot stays frozen while a writer thread churns
// the store.  Queries that coalesce through the KnnService seat while
// writers and compaction race them are fuzzed in
// tests/test_service_concurrency.cpp.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "data/generators.hpp"
#include "rng/rng.hpp"
#include "serve/segment_store.hpp"

namespace dknn {
namespace {

TEST(ServeConcurrency, HeldSnapshotIsStableWhileWritersChurn) {
  constexpr std::size_t kDim = 2;
  Rng rng(31);
  SegmentStore store(kDim, ServeConfig{.seal_threshold = 16});
  for (PointId id = 1; id <= 48; ++id) {
    store.insert(uniform_points(1, kDim, 50.0, rng)[0], id);
  }
  const SnapshotPtr held = store.snapshot();
  const PointD query = uniform_points(1, kDim, 50.0, rng)[0];
  const auto reference = snapshot_top_ell(*held, query, 8, MetricKind::Euclidean);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Rng wrng(32);
    PointId next_id = 100;
    while (!stop.load()) {
      store.insert(uniform_points(1, kDim, 50.0, wrng)[0], next_id++);
      (void)store.erase(1 + wrng.below(next_id - 1));
    }
  });
  // Re-score the held snapshot repeatedly while the writer churns: frozen
  // means frozen — every pass returns the same bytes.
  for (int pass = 0; pass < 200; ++pass) {
    const auto again = snapshot_top_ell(*held, query, 8, MetricKind::Euclidean);
    ASSERT_EQ(again.size(), reference.size()) << "pass " << pass;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(again[i].rank, reference[i].rank) << "pass " << pass;
      ASSERT_EQ(again[i].id, reference[i].id) << "pass " << pass;
    }
  }
  stop.store(true);
  writer.join();
}

}  // namespace
}  // namespace dknn
