#include "data/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <type_traits>

#include "data/simd/dispatch.hpp"
#include "data/validate.hpp"

namespace dknn {
namespace {

using simd::HeapState;
using simd::KernelOps;

/// Points per block.  One column slice (8 KB) plus the distance tile stay
/// resident while the whole query block streams over them.  Must be a
/// multiple of simd::kTilePad: the vector kernels full-width-store scored
/// tails and full-width-load prefilter blocks into the tile buffer, and
/// round_up(m, kTilePad) <= kTile is what bounds those accesses.
constexpr std::size_t kTile = 1024;
static_assert(kTile % simd::kTilePad == 0, "tile buffer must absorb vector tails");

using DistId = simd::DistId;
static_assert(std::is_same_v<DistId, std::pair<double, PointId>>,
              "KernelScratch::heaps element layout is the dispatch ABI");

/// Column base pointers for one store: a stack array for typical
/// dimensionalities, heap-backed beyond.
constexpr std::size_t kMaxStackDims = 16;
struct ColumnPointers {
  const double* fixed[kMaxStackDims];
  std::vector<const double*> dynamic;

  explicit ColumnPointers(const FlatStore& store) {
    const std::size_t d = store.dim();
    if (d > kMaxStackDims) dynamic.resize(d);
    double const** out = d > kMaxStackDims ? dynamic.data() : fixed;
    for (std::size_t j = 0; j < d; ++j) out[j] = store.dim_coords(j).data();
  }
  [[nodiscard]] const double* const* get() const {
    return dynamic.empty() ? fixed : dynamic.data();
  }
};

/// The k-th smallest of a[0, n) (k < n), partially reordering `a` — a
/// quickselect whose partition passes are branch-free (the sample's order
/// is random, so a branchy partition mispredicts about every other row).
/// A second pass splits off the pivot's duplicates, so all-equal samples
/// finish in one round.
double select_kth(double* a, std::size_t n, std::size_t k) {
  std::size_t lo = 0;
  std::size_t hi = n;
  while (hi - lo > 1) {
    const double x = a[lo];
    const double y = a[lo + (hi - lo) / 2];
    const double z = a[hi - 1];
    const double pivot = std::max(std::min(x, y), std::min(std::max(x, y), z));
    std::size_t below = lo;  // [lo, below) < pivot
    for (std::size_t i = lo; i < hi; ++i) {
      const double v = a[i];
      const bool smaller = v < pivot;
      a[i] = a[below];
      a[below] = v;
      below += smaller ? 1 : 0;
    }
    if (k < below) {
      hi = below;
      continue;
    }
    std::size_t equal = below;  // [below, equal) == pivot
    for (std::size_t i = below; i < hi; ++i) {
      const double v = a[i];
      const bool same = !(pivot < v);
      a[i] = a[equal];
      a[equal] = v;
      equal += same ? 1 : 0;
    }
    if (k < equal) return pivot;
    lo = equal;
  }
  return a[lo];
}

/// Sample rows per heap slot when seeding, which is also the smallest tile
/// (in multiples of cap) worth sampling.
constexpr std::size_t kSeedRowsPerSlot = 4;

/// Seeds the rejection threshold of a heap that is still filling from the
/// tile about to stream into it (a full heap's heap-top bound is already
/// tighter).  Any value that at least `cap` rows of this tile score at or
/// below is ≥ the true cap-th smallest score, so every row above it (in
/// this tile or any other) is outside the top-ℓ and may be rejected
/// without a heap visit.  A strided sample of kSeedRowsPerSlot·cap raw
/// scores supplies the candidate: first a low order statistic, kept only
/// if a counting pass finds ≥ cap rows at or below it, else the sample's
/// cap-th smallest, which the sample's own cap smallest rows always meet.
/// Deterministic (no randomness, no retry).  The bound enters `threshold`
/// in heap_update's domain (reject_threshold_sq-mapped for Euclidean) and
/// only tightens it.  Tiles of fewer than kSeedRowsPerSlot·cap rows are
/// not sampled.
void seed_threshold(MetricKind kind, double& threshold, const double* raw, std::size_t m,
                    std::size_t heap_size, std::size_t cap) {
  const std::size_t want = kSeedRowsPerSlot * cap;
  if (heap_size == cap || m < want) return;
  const std::size_t stride = m / want;
  double sample[kTile];
  for (std::size_t i = 0; i < want; ++i) sample[i] = raw[i * stride];
  // About cap/stride sample rows fall among the tile's cap best; two
  // standard deviations past that mean, the guess rarely undershoots.
  const double mean = static_cast<double>(cap) / static_cast<double>(stride);
  const auto guess = static_cast<std::size_t>(mean + 2.0 * std::sqrt(mean));
  double bound = 0.0;
  if (guess + 1 < cap) {
    bound = select_kth(sample, want, guess);
    std::size_t at_or_below = 0;
    for (std::size_t i = 0; i < m; ++i) at_or_below += raw[i] <= bound ? 1 : 0;
    if (at_or_below < cap) {
      // select_kth left every value ≥ the guess at or after it.
      bound = select_kth(sample + guess, want - guess, cap - 1 - guess);
    }
  } else {
    bound = select_kth(sample, want, cap - 1);
  }
  if (kind == MetricKind::Euclidean) bound = simd::reject_threshold_sq(std::sqrt(bound));
  threshold = std::min(threshold, bound);
}

/// A selected heap's entries as ascending Keys.  Every ISA's heap holds
/// the same set (the ℓ smallest of distinct keys) in its own layout, so a
/// plain sort lands on the same bytes; std::sort beats std::sort_heap's
/// mispredicting sift-downs at this size.
void emit_sorted(DistId* heap, std::size_t size, std::vector<Key>& out) {
  std::sort(heap, heap + size);
  out.clear();
  out.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    out.push_back(Key{encode_distance(heap[i].first), heap[i].second});
  }
}

void batch_impl(const KernelOps& ops, MetricKind kind, const FlatStore& store,
                std::span<const RowRange> ranges, std::span<const PointD> queries,
                std::size_t cap, std::vector<std::vector<Key>>& out, KernelScratch& scratch) {
  constexpr std::size_t kBlock = simd::kMaxQueryBlock;
  const std::size_t d = store.dim();
  const std::size_t num_queries = queries.size();
  scratch.dist.resize(std::min(kBlock, num_queries) * kTile);
  scratch.heaps.resize(num_queries * cap);
  scratch.heap_sizes.assign(num_queries, 0);
  const PointId* ids = store.ids().data();
  const ColumnPointers cols(store);

  // Rejection thresholds, one per query (+∞ until a seed or a full heap).
  scratch.thresholds.assign(num_queries, std::numeric_limits<double>::infinity());

  for (const auto& [lo, hi] : ranges) {
    for (std::size_t t0 = lo; t0 < hi; t0 += kTile) {
      const std::size_t m = std::min(kTile, hi - t0);
      // One column pass per register block of queries, then each query's
      // scored row streams into its own heap.
      for (std::size_t q0 = 0; q0 < num_queries; q0 += kBlock) {
        const std::size_t nq = std::min(kBlock, num_queries - q0);
        const double* block[kBlock];
        for (std::size_t i = 0; i < nq; ++i) block[i] = queries[q0 + i].coords.data();
        ops.tile_scores_batch(kind, cols.get(), block, nq, d, t0, m, scratch.dist.data(), kTile);
        for (std::size_t i = 0; i < nq; ++i) {
          const std::size_t q = q0 + i;
          const double* raw = scratch.dist.data() + i * kTile;
          HeapState heap{scratch.heaps.data() + q * cap, scratch.heap_sizes[q], cap};
          seed_threshold(kind, scratch.thresholds[q], raw, m, heap.size, cap);
          ops.heap_update(kind, heap, scratch.thresholds[q], raw, ids + t0, m);
          scratch.heap_sizes[q] = heap.size;
        }
      }
    }
  }

  for (std::size_t q = 0; q < num_queries; ++q) {
    emit_sorted(scratch.heaps.data() + q * cap, scratch.heap_sizes[q], out[q]);
  }
}

void score_store_impl(const KernelOps& ops, MetricKind kind, const FlatStore& store,
                      const PointD& query, std::vector<Key>& out) {
  const std::size_t n = store.size();
  const std::size_t d = store.dim();
  const PointId* ids = store.ids().data();
  const ColumnPointers cols(store);
  double dist[kTile];
  out.resize(n);
  for (std::size_t t0 = 0; t0 < n; t0 += kTile) {
    const std::size_t m = std::min(kTile, n - t0);
    ops.tile_scores(kind, cols.get(), query.coords.data(), d, t0, m, dist);
    // Materialization forces every rank into the metric's domain — the
    // fused path's lazy sqrt is exactly what this variant cannot do.  The
    // epilogue rides the same dispatch table as scoring (vsqrtpd on the
    // vector ISAs; correctly-rounded everywhere, so bytes never change).
    if (kind == MetricKind::Euclidean) ops.sqrt_tile(dist, m);
    for (std::size_t i = 0; i < m; ++i) {
      out[t0 + i] = Key{encode_distance(dist[i]), ids[t0 + i]};
    }
  }
}

}  // namespace

namespace {

/// The per-ISA entry switches can't panic themselves (the variant TUs stay
/// free of std::string-dragging headers — see data/simd/README.md), so an
/// out-of-enum kind would silently no-op into empty results.  Validate at
/// every public kernel entry instead, preserving the pre-dispatch loud
/// failure.
void require_known_kind(MetricKind kind, const char* where) {
  switch (kind) {
    case MetricKind::Euclidean:
    case MetricKind::SquaredEuclidean:
    case MetricKind::Manhattan:
    case MetricKind::Chebyshev: return;
  }
  panic(std::string(where) + ": unknown MetricKind");
}

}  // namespace

const char* metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::Euclidean: return "euclidean";
    case MetricKind::SquaredEuclidean: return "squared-euclidean";
    case MetricKind::Manhattan: return "manhattan";
    case MetricKind::Chebyshev: return "chebyshev";
  }
  return "unknown";
}

double metric_distance(MetricKind kind, const PointD& a, const PointD& b) {
  switch (kind) {
    case MetricKind::Euclidean: return EuclideanMetric{}(a, b);
    case MetricKind::SquaredEuclidean: return SquaredEuclidean{}(a, b);
    case MetricKind::Manhattan: return ManhattanMetric{}(a, b);
    case MetricKind::Chebyshev: return ChebyshevMetric{}(a, b);
  }
  panic("metric_distance: unknown MetricKind");
}

void fused_top_ell_ranges(const FlatStore& store, std::span<const RowRange> ranges,
                          std::span<const PointD> queries, std::size_t ell, MetricKind kind,
                          std::vector<std::vector<Key>>& out, KernelScratch& scratch) {
  require_known_kind(kind, "fused_top_ell_ranges");
  out.resize(queries.size());
  // An empty store has no knowable dimension (mirrors the AoS path, which
  // never checks dims against an empty shard); a non-empty one validates
  // even when ell == 0 so caller bugs aren't masked by empty results.
  if (!store.empty()) {
    for (const PointD& query : queries) require_query_dim(store.dim(), query.dim());
  }
  std::size_t rows = 0;
  for (const auto& [lo, hi] : ranges) {
    DKNN_REQUIRE(lo <= hi && hi <= store.size(), "fused_top_ell_ranges: range out of bounds");
    rows += hi - lo;
  }
  if (ell == 0 || rows == 0) {
    for (auto& keys : out) keys.clear();
    return;
  }
  batch_impl(simd::kernel_ops(), kind, store, ranges, queries, std::min(ell, rows), out,
             scratch);
}

void fused_top_ell_batch(const FlatStore& store, std::span<const PointD> queries,
                         std::size_t ell, MetricKind kind,
                         std::vector<std::vector<Key>>& out, KernelScratch& scratch) {
  const RowRange all{0, store.size()};
  fused_top_ell_ranges(store, std::span<const RowRange>(&all, 1), queries, ell, kind, out,
                       scratch);
}

RangeTopEll::RangeTopEll(const FlatStore& store, const PointD& query, std::size_t ell,
                         MetricKind kind, KernelScratch& scratch)
    : store_(store), query_(query), kind_(kind), ops_(&simd::kernel_ops()),
      scratch_(scratch), threshold_(std::numeric_limits<double>::infinity()) {
  require_known_kind(kind, "RangeTopEll");
  if (!store.empty()) {
    require_query_dim(store.dim(), query.dim());
  }
  cap_ = std::min(ell, store.size());
  if (cap_ == 0) return;
  // All buffers live in the caller's scratch (reused across the query
  // block), so steady-state hybrid scoring is allocation-free like the
  // fused batch path.
  scratch_.dist.resize(kTile);
  scratch_.heaps.resize(cap_);
  scratch_.cols.resize(store.dim());
  for (std::size_t j = 0; j < store.dim(); ++j) scratch_.cols[j] = store.dim_coords(j).data();
}

void RangeTopEll::score_range(std::size_t lo, std::size_t hi) {
  DKNN_ASSERT(lo <= hi && hi <= store_.size(), "RangeTopEll: range out of bounds");
  if (cap_ == 0 || lo == hi) return;
  const PointId* ids = store_.ids().data();
  HeapState heap{scratch_.heaps.data(), heap_size_, cap_};
  for (std::size_t t0 = lo; t0 < hi; t0 += kTile) {
    const std::size_t m = std::min(kTile, hi - t0);
    const double* raw = scratch_.dist.data();
    ops_->tile_scores(kind_, scratch_.cols.data(), query_.coords.data(), store_.dim(), t0, m,
                      scratch_.dist.data());
    seed_threshold(kind_, threshold_, raw, m, heap.size, cap_);
    ops_->heap_update(kind_, heap, threshold_, raw, ids + t0, m);
  }
  heap_size_ = heap.size;
}

void RangeTopEll::finish(std::vector<Key>& out) {
  emit_sorted(scratch_.heaps.data(), heap_size_, out);
}

std::vector<Key> fused_top_ell(const FlatStore& store, const PointD& query, std::size_t ell,
                               MetricKind kind) {
  KernelScratch scratch;
  std::vector<std::vector<Key>> out;
  fused_top_ell_batch(store, std::span<const PointD>(&query, 1), ell, kind, out, scratch);
  return std::move(out[0]);
}

void score_store(const FlatStore& store, const PointD& query, MetricKind kind,
                 std::vector<Key>& out) {
  require_known_kind(kind, "score_store");
  if (store.empty()) {
    out.clear();
    return;
  }
  require_query_dim(store.dim(), query.dim());
  score_store_impl(simd::kernel_ops(), kind, store, query, out);
}

}  // namespace dknn
