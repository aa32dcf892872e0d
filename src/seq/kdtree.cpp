#include "seq/kdtree.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "data/validate.hpp"
#include "support/panic.hpp"

namespace dknn {

KdRangeIndex::KdRangeIndex(std::span<const PointD> points, std::span<const PointId> ids,
                           std::size_t leaf_size)
    : leaf_size_(leaf_size) {
  DKNN_REQUIRE(points.size() == ids.size(), "KdRangeIndex: points and ids must align");
  DKNN_REQUIRE(leaf_size_ >= 1, "KdRangeIndex: leaf_size must be positive");
  if (points.empty()) return;
  const std::size_t d = points[0].dim();
  DKNN_REQUIRE(d >= 1, "KdRangeIndex: needs dimension >= 1");
  for (const auto& p : points) {
    DKNN_REQUIRE(p.dim() == d, "KdRangeIndex: inconsistent dimensions");
  }

  std::vector<std::size_t> order(points.size());
  std::iota(order.begin(), order.end(), 0);
  // Preorder node count is bounded by 2 * ceil(n / leaf) - 1.
  nodes_.reserve(2 * (points.size() / leaf_size_ + 1));
  box_lo_.reserve(nodes_.capacity() * d);
  box_hi_.reserve(nodes_.capacity() * d);
  build(points, ids, order, 0, points.size());

  std::vector<PointD> reordered;
  std::vector<PointId> reordered_ids;
  reordered.reserve(points.size());
  reordered_ids.reserve(points.size());
  for (const std::size_t i : order) {
    reordered.push_back(points[i]);
    reordered_ids.push_back(ids[i]);
  }
  store_ = FlatStore(reordered, reordered_ids);
}

std::int32_t KdRangeIndex::build(std::span<const PointD> points, std::span<const PointId> ids,
                                 std::vector<std::size_t>& order, std::size_t lo,
                                 std::size_t hi) {
  const std::size_t d = points[0].dim();
  const auto node_index = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back(Node{lo, hi, -1, -1, 0, 0.0});

  // Bounding box over [lo, hi); also find the widest axis for the split.
  const std::size_t box_at = box_lo_.size();
  box_lo_.resize(box_at + d, std::numeric_limits<double>::infinity());
  box_hi_.resize(box_at + d, -std::numeric_limits<double>::infinity());
  for (std::size_t i = lo; i < hi; ++i) {
    const PointD& p = points[order[i]];
    for (std::size_t j = 0; j < d; ++j) {
      box_lo_[box_at + j] = std::min(box_lo_[box_at + j], p[j]);
      box_hi_[box_at + j] = std::max(box_hi_[box_at + j], p[j]);
    }
  }
  if (hi - lo <= leaf_size_) return node_index;

  std::uint32_t axis = 0;
  double widest = -1.0;
  for (std::size_t j = 0; j < d; ++j) {
    const double extent = box_hi_[box_at + j] - box_lo_[box_at + j];
    if (extent > widest) {
      widest = extent;
      axis = static_cast<std::uint32_t>(j);
    }
  }

  const std::size_t mid = lo + (hi - lo) / 2;
  std::nth_element(order.begin() + static_cast<std::ptrdiff_t>(lo),
                   order.begin() + static_cast<std::ptrdiff_t>(mid),
                   order.begin() + static_cast<std::ptrdiff_t>(hi),
                   [&](std::size_t a, std::size_t b) {
                     // Tie-break on id so the build is fully deterministic.
                     const double xa = points[a][axis], xb = points[b][axis];
                     return xa != xb ? xa < xb : ids[a] < ids[b];
                   });
  nodes_[static_cast<std::size_t>(node_index)].axis = axis;
  nodes_[static_cast<std::size_t>(node_index)].split = points[order[mid]][axis];
  const std::int32_t left = build(points, ids, order, lo, mid);
  const std::int32_t right = build(points, ids, order, mid, hi);
  nodes_[static_cast<std::size_t>(node_index)].left = left;
  nodes_[static_cast<std::size_t>(node_index)].right = right;
  return node_index;
}

namespace {

/// Smallest possible raw kernel score of any point inside the box, folded
/// per dimension in ascending order — the *same* operation sequence as the
/// scoring kernels, so by monotonicity of IEEE rounding the returned value
/// never exceeds any covered point's computed raw score.  (Per dimension:
/// every in-box coordinate difference dominates the gap to the nearer box
/// face in exact arithmetic, and rounding preserves ≤; squares, sums and
/// max are likewise monotone operation by operation.)
double box_raw_bound(MetricKind kind, std::span<const double> box_lo,
                     std::span<const double> box_hi, const PointD& query) {
  double acc = 0.0;
  for (std::size_t j = 0; j < box_lo.size(); ++j) {
    const double lo_gap = box_lo[j] - query[j];
    const double hi_gap = query[j] - box_hi[j];
    double gap = lo_gap > hi_gap ? lo_gap : hi_gap;
    if (gap < 0.0) gap = 0.0;
    switch (kind) {
      case MetricKind::Euclidean:
      case MetricKind::SquaredEuclidean: acc += gap * gap; break;
      case MetricKind::Manhattan: acc += gap; break;
      case MetricKind::Chebyshev: acc = std::max(acc, gap); break;
    }
  }
  return acc;
}

void hybrid_query(const KdRangeIndex& index, const PointD& query, MetricKind kind,
                  std::int32_t node_index, RangeTopEll& scorer, TreeStats& stats) {
  const auto at = static_cast<std::size_t>(node_index);
  const KdRangeIndex::Node& node = index.nodes()[at];
  ++stats.nodes_visited;
  // Lossless prune: bound ≤ every covered raw score, so bound > threshold
  // means the heap prefilter would reject the whole subtree point by point.
  if (box_raw_bound(kind, index.box_lo(at), index.box_hi(at), query) > scorer.threshold()) {
    ++stats.subtrees_pruned;
    return;
  }
  if (node.left < 0) {
    ++stats.leaves_scored;
    stats.points_scored += node.hi - node.lo;
    scorer.score_range(node.lo, node.hi);
    return;
  }
  // Near side first tightens the threshold before the far side's bound test.
  const bool left_near = query[node.axis] < node.split;
  hybrid_query(index, query, kind, left_near ? node.left : node.right, scorer, stats);
  hybrid_query(index, query, kind, left_near ? node.right : node.left, scorer, stats);
}

}  // namespace

void hybrid_top_ell_batch(const KdRangeIndex& index, std::span<const PointD> queries,
                          std::size_t ell, MetricKind kind,
                          std::vector<std::vector<Key>>& out, KernelScratch& scratch) {
  const FlatStore& store = index.store();
  out.resize(queries.size());
  if (!store.empty()) {
    for (const PointD& query : queries) require_query_dim(store.dim(), query.dim());
  }
  if (ell == 0 || store.empty()) {
    for (auto& keys : out) keys.clear();
    return;
  }
  TreeStats stats;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    RangeTopEll scorer(store, queries[q], ell, kind, scratch);
    ++stats.queries;
    hybrid_query(index, queries[q], kind, 0, scorer, stats);
    scorer.finish(out[q]);
  }
  // One relaxed-atomic add per batch (not per node): concurrent tiles over
  // the same index accumulate without contention on the hot path.
  index.add_stats(stats);
}

}  // namespace dknn
