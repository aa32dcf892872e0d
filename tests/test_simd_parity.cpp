// Cross-ISA parity harness for the explicit-SIMD scoring kernels
// (src/data/simd/): every ISA level the build + CPU supports — scalar,
// AVX2, AVX-512, each pinned via simd::force_isa — must produce
// *byte-identical* Key output to the AoS metric-functor reference, for all
// four metrics, across
//
//   * d ∈ {1..24, 31, 32, 33, 63, 64, 65} (fixed-dim kernel table, the
//     dynamic fallback, and power-of-two ± 1 column strides),
//   * n hitting every tail residue mod 16 (the widest prefilter block),
//     including n smaller than one vector,
//   * exact distance ties and duplicated points (id-only tie-breaks),
//   * ℓ = 1, ℓ ≥ n, and mid-range ℓ,
//   * NaN-free denormal coordinates (masked lanes and underflowing
//     accumulators must not flush, trap, or reorder),
//
// over the fused batch kernel, the RangeTopEll leaf scorer under random
// range decompositions (the kd-hybrid entry point), the materializing
// score_store, the register-blocked multi-query op and its batched
// entries (every query-count remainder), and the policy-aware parallel
// driver path.  Failures log
// the trial seed via SCOPED_TRACE for a one-line repro.
//
// The SelectorParity suite aims at the sample-seeded rejection bound: tied
// and duplicated rows, Euclidean raw neighbours sharing one sqrt, sorted
// rows, tiles at the seeding size edge, multi-tile / multi-range calls, and
// a tile built so the low-rank guess fails into its fallback.
//
// ISAs the running CPU lacks are skipped (and logged) — the scalar row is
// always present, so the suite never passes vacuously.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "data/kernels.hpp"
#include "data/simd/dispatch.hpp"
#include "data/simd/kernel_ops.hpp"
#include "parity_support.hpp"
#include "rng/rng.hpp"
#include "seq/kdtree.hpp"
#include "seq/select.hpp"

namespace dknn {
namespace {

using testing_support::expect_same_keys;
using testing_support::reference_top_ell;

constexpr MetricKind kAllKinds[] = {MetricKind::Euclidean, MetricKind::SquaredEuclidean,
                                    MetricKind::Manhattan, MetricKind::Chebyshev};

/// The dimension schedule the issue pins: the whole fixed-dim table, the
/// dynamic fallback, and ±1 around vector-width multiples.
constexpr std::size_t kDims[] = {1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11, 12, 13, 14, 15, 16,
                                 17, 18, 19, 20, 21, 22, 23, 24, 31, 32, 33, 63, 64, 65};

std::vector<simd::Isa> supported_isas() {
  std::vector<simd::Isa> out;
  for (std::size_t i = 0; i < simd::kIsaCount; ++i) {
    const auto isa = static_cast<simd::Isa>(i);
    if (simd::isa_supported(isa)) out.push_back(isa);
  }
  return out;  // scalar is always supported
}

using ForcedIsa = simd::ScopedForceIsa;

enum class CoordMode {
  Continuous,  ///< full-range doubles
  Grid,        ///< small integers — exact cross-point distance ties
  Denormal,    ///< |x| ≲ 5e-308 — diffs/squares underflow into subnormals
};

double random_coord(CoordMode mode, Rng& rng) {
  switch (mode) {
    case CoordMode::Continuous: return rng.uniform01() * 100.0 - 50.0;
    case CoordMode::Grid: return static_cast<double>(rng.below(4));
    case CoordMode::Denormal: return (rng.uniform01() * 2.0 - 1.0) * 5e-308;
  }
  return 0.0;
}

PointD random_point(std::size_t dim, CoordMode mode, Rng& rng) {
  std::vector<double> coords(dim);
  for (std::size_t j = 0; j < dim; ++j) coords[j] = random_coord(mode, rng);
  return PointD(std::move(coords));
}

struct Trial {
  VectorShard shard;
  PointD query;
  std::size_t dim = 1;
  std::size_t ell = 1;
  MetricKind kind = MetricKind::Euclidean;
  CoordMode mode = CoordMode::Continuous;
};

/// Deterministic shape from (seed, index): `index` walks the dimension
/// table and 48 consecutive sizes (every tail residue mod 16, three times
/// over), the seed drives everything else.
Trial make_trial(std::uint64_t seed, std::uint64_t index) {
  Rng rng(seed);
  Trial t;
  t.dim = kDims[index % std::size(kDims)];
  t.kind = kAllKinds[rng.below(4)];
  switch (rng.below(5)) {
    case 0: t.mode = CoordMode::Grid; break;
    case 1: t.mode = CoordMode::Denormal; break;
    default: t.mode = CoordMode::Continuous; break;
  }
  // Small-n trials cross n < one vector / n < one prefilter block; the
  // rest sweep 160..207 so n mod 16 covers every residue.
  const std::size_t n =
      (index % 7 == 0) ? 1 + index % 33 : 160 + static_cast<std::size_t>(index % 48);
  std::uint64_t next_id = 1;
  t.shard.points.reserve(n);
  t.shard.ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!t.shard.points.empty() && rng.bernoulli(0.2)) {
      // Duplicate under a fresh id: identical distance, id-only tie-break.
      t.shard.points.push_back(t.shard.points[rng.below(t.shard.points.size())]);
    } else {
      t.shard.points.push_back(random_point(t.dim, t.mode, rng));
    }
    t.shard.ids.push_back(next_id);
    next_id += 1 + rng.below(5);
  }
  switch (rng.below(4)) {
    case 0: t.ell = 1; break;
    case 1: t.ell = 1 + rng.below(64); break;
    case 2: t.ell = n; break;
    default: t.ell = n + 1 + rng.below(8); break;  // ℓ > n
  }
  t.query = random_point(t.dim, t.mode, rng);
  return t;
}

/// Scores the trial on one pinned ISA via every kernel entry point and
/// asserts byte parity with the reference.  `range_rng` drives the
/// RangeTopEll decomposition (same stream across ISAs → same ranges).
void check_isa(const Trial& t, const std::vector<Key>& expected, simd::Isa isa,
               std::uint64_t range_seed) {
  SCOPED_TRACE(simd::isa_name(isa));
  ForcedIsa pin(isa);
  const FlatStore store(t.shard.points, t.shard.ids);

  {  // fused batch kernel
    const auto got = fused_top_ell(store, t.query, t.ell, t.kind);
    expect_same_keys(expected, got, "fused");
  }

  {  // RangeTopEll over a random decomposition of [0, n) — the kd-hybrid
     // leaf entry point; skipping nothing, so the result must be exact.
    Rng rng(range_seed);
    KernelScratch scratch;
    RangeTopEll scorer(store, t.query, t.ell, t.kind, scratch);
    std::size_t lo = 0;
    while (lo < store.size()) {
      const std::size_t hi = lo + 1 + rng.below(store.size() - lo);
      scorer.score_range(lo, hi);
      lo = hi;
    }
    std::vector<Key> got;
    scorer.finish(got);
    expect_same_keys(expected, got, "range");
  }

  {  // materializing kernel + separate selection
    std::vector<Key> scored;
    score_store(store, t.query, t.kind, scored);
    const auto got = top_ell_smallest(std::span<const Key>(scored), t.ell);
    expect_same_keys(expected, got, "score_store");
  }
}

void run_trial(std::uint64_t seed, std::uint64_t index, const std::vector<simd::Isa>& isas) {
  const Trial t = make_trial(seed, index);
  std::ostringstream trace;
  trace << "repro: run_trial(0x" << std::hex << seed << std::dec << ", " << index
        << ") — dim=" << t.dim << " n=" << t.shard.points.size() << " (mod16="
        << t.shard.points.size() % 16 << ") metric=" << metric_kind_name(t.kind)
        << " ell=" << t.ell << " mode=" << static_cast<int>(t.mode);
  SCOPED_TRACE(trace.str());
  const auto expected = reference_top_ell(t.shard, t.query, t.kind, t.ell);
  for (const simd::Isa isa : isas) check_isa(t, expected, isa, seed ^ 0x5EEDULL);
}

TEST(SimdParity, DispatchReportsCoherently) {
  const auto isas = supported_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), simd::Isa::Scalar);
  // Un-forced dispatch honours DKNN_FORCE_ISA when the environment sets it
  // (the CI force-scalar leg does), else the widest supported level — so
  // assert force/unpin restores whatever this process started with.
  const simd::Isa unforced = simd::active_isa();
  EXPECT_TRUE(simd::isa_supported(unforced));
  for (const simd::Isa isa : isas) {
    EXPECT_EQ(simd::parse_isa(simd::isa_name(isa)), isa);
    ForcedIsa pin(isa);
    EXPECT_EQ(simd::active_isa(), isa);
    EXPECT_STREQ(simd::kernel_ops().name, simd::isa_name(isa));
  }
  EXPECT_EQ(simd::active_isa(), unforced);
  EXPECT_FALSE(simd::parse_isa("sse9").has_value());
  if (isas.size() < simd::kIsaCount) {
    std::printf("[  NOTE    ] CPU supports %zu/%zu ISA levels — unsupported ones skipped\n",
                isas.size(), simd::kIsaCount);
  }
}

TEST(SimdParity, RandomizedTrials) {
  // ≥1000 seeded trials (the acceptance floor); each walks the dimension
  // table and the n-residue sweep deterministically, so any failure's
  // SCOPED_TRACE seed+index replays exactly.
  constexpr std::uint64_t kBaseSeed = 0x51DDBA17ULL;
  const auto isas = supported_isas();
  for (std::uint64_t i = 0; i < 1050; ++i) run_trial(kBaseSeed + i, i, isas);
}

TEST(SimdParity, EveryTailResidueTinyN) {
  // n = 1..48 at the canonical d=8: every residue mod 16 three times,
  // including n below one AVX2 vector, one AVX-512 vector, and one
  // prefilter block — the pure-tail regime where masked loads do all the
  // work.
  const auto isas = supported_isas();
  Rng rng(0xA11ULL);
  for (std::size_t n = 1; n <= 48; ++n) {
    Trial t;
    t.dim = 8;
    t.kind = kAllKinds[n % 4];
    t.ell = 1 + n / 2;
    for (std::size_t i = 0; i < n; ++i) {
      t.shard.points.push_back(random_point(8, CoordMode::Continuous, rng));
      t.shard.ids.push_back(100 + 3 * i);
    }
    t.query = random_point(8, CoordMode::Continuous, rng);
    std::ostringstream trace;
    trace << "n=" << n << " metric=" << metric_kind_name(t.kind);
    SCOPED_TRACE(trace.str());
    const auto expected = reference_top_ell(t.shard, t.query, t.kind, t.ell);
    for (const simd::Isa isa : isas) check_isa(t, expected, isa, 0xFEEDULL + n);
  }
}

TEST(SimdParity, DenormalSaturatedAllMetrics) {
  // Every coordinate subnormal-adjacent: squared diffs underflow to 0 or
  // subnormals, producing mass ties — selection must still match the
  // functor reference bit for bit on every ISA (no FTZ/DAZ divergence).
  const auto isas = supported_isas();
  Rng rng(0xDE400ULL);
  for (const MetricKind kind : kAllKinds) {
    Trial t;
    t.dim = 11;
    t.kind = kind;
    t.ell = 25;
    t.mode = CoordMode::Denormal;
    for (std::size_t i = 0; i < 200; ++i) {
      t.shard.points.push_back(random_point(t.dim, t.mode, rng));
      t.shard.ids.push_back(1 + 7 * i);
    }
    t.query = random_point(t.dim, t.mode, rng);
    SCOPED_TRACE(metric_kind_name(kind));
    const auto expected = reference_top_ell(t.shard, t.query, t.kind, t.ell);
    for (const simd::Isa isa : isas) check_isa(t, expected, isa, 0xDE401ULL);
  }
}

TEST(SimdParity, MultiQueryBlocksMatchPerQueryReference) {
  // The register-blocked multi-query op against the scalar per-query tile,
  // lane for lane, and the batched fused entries (whole store and row
  // ranges) against the functor oracle — every metric, the fixed-dim table
  // plus the dynamic loop, every register-block remainder (8/4/2/1), and
  // tiles whose length and start are not multiples of the vector width.
  constexpr std::size_t kBlockDims[] = {1, 2,  3,  4,  5,  6,  7,  8,  9, 10,
                                        11, 12, 13, 14, 15, 16, 17, 32, 33};
  constexpr std::size_t kQueryCounts[] = {1, 2, 3, 7, 8, 9, 17, 64};
  constexpr std::size_t kStride = 64;  // ≥ round_up(m, kTilePad) below
  const auto isas = supported_isas();
  const simd::KernelOps& reference = simd::scalar_ops();
  Rng rng(0xB10C5ULL);
  for (const std::size_t dim : kBlockDims) {
    const std::size_t n = 45 + rng.below(8);  // a few vectors plus a ragged tail
    VectorShard shard;
    for (std::size_t i = 0; i < n; ++i) {
      shard.points.push_back(random_point(dim, dim % 3 == 0 ? CoordMode::Grid
                                                             : CoordMode::Continuous,
                                          rng));
      shard.ids.push_back(10 + 2 * i);
    }
    std::vector<PointD> queries;
    for (std::size_t q = 0; q < 64; ++q) {
      queries.push_back(random_point(dim, CoordMode::Continuous, rng));
    }
    const FlatStore store(shard.points, shard.ids);
    std::vector<const double*> cols(dim);
    for (std::size_t j = 0; j < dim; ++j) cols[j] = store.dim_coords(j).data();
    std::vector<const double*> query_ptrs;
    for (const PointD& query : queries) query_ptrs.push_back(query.coords.data());

    for (const MetricKind kind : kAllKinds) {
      std::vector<std::vector<std::vector<Key>>> expected;  // [count index][query]
      for (const std::size_t count : kQueryCounts) {
        expected.emplace_back();
        for (std::size_t q = 0; q < count; ++q) {
          expected.back().push_back(reference_top_ell(shard, queries[q], kind, 9));
        }
      }
      for (const simd::Isa isa : isas) {
        std::ostringstream trace;
        trace << simd::isa_name(isa) << " dim=" << dim << " n=" << n
              << " metric=" << metric_kind_name(kind);
        SCOPED_TRACE(trace.str());
        ForcedIsa pin(isa);
        const simd::KernelOps& ops = simd::kernel_ops();

        // Op level: nq = 1..kMaxQueryBlock, over a tile starting off the
        // vector grid and ending in a partial vector.
        for (const auto& [t0, m] : {std::pair<std::size_t, std::size_t>{0, n},
                                    std::pair<std::size_t, std::size_t>{3, n - 3 - 2},
                                    std::pair<std::size_t, std::size_t>{1, 5}}) {
          for (std::size_t nq = 1; nq <= simd::kMaxQueryBlock; ++nq) {
            std::vector<double> got(nq * kStride), want(nq * kStride);
            ops.tile_scores_batch(kind, cols.data(), query_ptrs.data(), nq, dim, t0, m,
                                  got.data(), kStride);
            for (std::size_t q = 0; q < nq; ++q) {
              reference.tile_scores(kind, cols.data(), query_ptrs[q], dim, t0, m,
                                    want.data() + q * kStride);
              for (std::size_t i = 0; i < m; ++i) {
                ASSERT_EQ(std::bit_cast<std::uint64_t>(want[q * kStride + i]),
                          std::bit_cast<std::uint64_t>(got[q * kStride + i]))
                    << "t0=" << t0 << " m=" << m << " nq=" << nq << " query " << q
                    << " row " << i;
              }
            }
          }
        }

        // API level: the batch walks register blocks across every count,
        // over the whole store and over a ragged range decomposition.
        const std::vector<RowRange> ranges = {{0, 5}, {5, 6}, {6, n - 9}, {n - 9, n}};
        KernelScratch scratch;
        std::vector<std::vector<Key>> whole, ranged;
        for (std::size_t c = 0; c < std::size(kQueryCounts); ++c) {
          const std::span<const PointD> block(queries.data(), kQueryCounts[c]);
          fused_top_ell_batch(store, block, 9, kind, whole, scratch);
          fused_top_ell_ranges(store, ranges, block, 9, kind, ranged, scratch);
          for (std::size_t q = 0; q < block.size(); ++q) {
            expect_same_keys(expected[c][q], whole[q], "batch");
            expect_same_keys(expected[c][q], ranged[q], "ranges");
          }
        }
      }
    }
  }
}

// --- the sample-seeded selector ----------------------------------------------

/// The selector's oracle: every row materialized by score_store, restricted
/// to `ranges`, then the ℓ smallest.  No fused kernel and no seed touch it.
std::vector<Key> materialized_top_ell(const FlatStore& store, const PointD& query,
                                      std::size_t ell, MetricKind kind,
                                      std::span<const RowRange> ranges) {
  std::vector<Key> all;
  score_store(store, query, kind, all);
  std::vector<Key> picked;
  for (const auto& [lo, hi] : ranges) {
    picked.insert(picked.end(), all.begin() + static_cast<std::ptrdiff_t>(lo),
                  all.begin() + static_cast<std::ptrdiff_t>(hi));
  }
  return top_ell_smallest(std::span<const Key>(picked), ell);
}

/// Ways to cut [0, n) into ranges: whole, one ragged split, tile-straddling
/// pieces (multi-tile when n > 1024), and a sparse subset that skips rows.
std::vector<std::vector<RowRange>> decompositions(std::size_t n) {
  std::vector<std::vector<RowRange>> out;
  out.push_back({{0, n}});
  out.push_back({{0, n / 3}, {n / 3, n}});
  std::vector<RowRange> pieces;
  for (std::size_t lo = 0; lo < n; lo += 700) pieces.emplace_back(lo, std::min(n, lo + 700));
  std::reverse(pieces.begin(), pieces.end());
  out.push_back(pieces);
  out.push_back({{n / 8, n / 2}, {n / 2 + 3 < n ? n / 2 + 3 : n, n}});
  return out;
}

/// Every supported ISA's selector, through every entry (the fused batch
/// over several queries at once, fused_top_ell_ranges over each
/// decomposition, RangeTopEll over random cuts), against the oracle.
void check_selector(const VectorShard& shard, std::span<const PointD> queries,
                    std::size_t ell, MetricKind kind, const std::string& label) {
  const FlatStore store(shard.points, shard.ids);
  const std::size_t n = store.size();
  const auto cuts = decompositions(n);
  std::vector<std::vector<std::vector<Key>>> expected(cuts.size());
  {
    ForcedIsa pin(simd::Isa::Scalar);
    for (std::size_t c = 0; c < cuts.size(); ++c) {
      for (const PointD& query : queries) {
        expected[c].push_back(materialized_top_ell(store, query, ell, kind, cuts[c]));
      }
    }
  }
  for (const simd::Isa isa : supported_isas()) {
    std::ostringstream trace;
    trace << label << " isa=" << simd::isa_name(isa) << " n=" << n << " ell=" << ell
          << " metric=" << metric_kind_name(kind);
    SCOPED_TRACE(trace.str());
    ForcedIsa pin(isa);
    KernelScratch scratch;
    std::vector<std::vector<Key>> got;
    fused_top_ell_batch(store, queries, ell, kind, got, scratch);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      expect_same_keys(expected[0][q], got[q], "batch");
    }
    for (std::size_t c = 0; c < cuts.size(); ++c) {
      fused_top_ell_ranges(store, cuts[c], queries, ell, kind, got, scratch);
      for (std::size_t q = 0; q < queries.size(); ++q) {
        expect_same_keys(expected[c][q], got[q], "ranges cut " + std::to_string(c));
      }
    }
    Rng rng(n * 31 + ell);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      RangeTopEll scorer(store, queries[q], ell, kind, scratch);
      for (std::size_t lo = 0; lo < n;) {
        const std::size_t hi = lo + 1 + rng.below(std::min<std::size_t>(n - lo, 1500));
        scorer.score_range(lo, hi);
        lo = hi;
      }
      std::vector<Key> keys;
      scorer.finish(keys);
      expect_same_keys(expected[0][q], keys, "RangeTopEll");
    }
  }
}

/// d=1 rows at the given coordinates, ids descending so id tie-breaks run
/// against row order; queried at 0.
VectorShard line_shard(const std::vector<double>& xs) {
  VectorShard shard;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    shard.points.push_back(PointD(std::vector<double>{xs[i]}));
    shard.ids.push_back(10 * (xs.size() - i));
  }
  return shard;
}

TEST(SelectorParity, AllEqualDistancesAndDuplicatedPoints) {
  // One point repeated: every row ties and only ids order the keys (the
  // seed's sample is constant, so the bound admits every row).  Then a
  // d=8 cloud where each point appears three times under fresh ids.
  const std::vector<PointD> origin = {PointD(std::vector<double>(8, 0.0))};
  Rng rng(0xE0A1ULL);
  VectorShard same;
  VectorShard triples;
  for (std::size_t i = 0; i < 1500; ++i) {
    same.points.push_back(PointD(std::vector<double>(8, 3.0)));
    same.ids.push_back(7 + 13 * ((i * 611) % 1500));
  }
  for (std::size_t i = 0; i < 600; ++i) {
    const PointD point = random_point(8, CoordMode::Continuous, rng);
    for (std::size_t copy = 0; copy < 3; ++copy) {
      triples.points.push_back(point);
      triples.ids.push_back(1 + 3 * i + (2 - copy) * 5000);
    }
  }
  const std::vector<PointD> queries = {random_point(8, CoordMode::Continuous, rng),
                                       random_point(8, CoordMode::Continuous, rng)};
  for (const MetricKind kind : kAllKinds) {
    for (const std::size_t ell : {1, 7, 64, 300}) {
      check_selector(same, origin, ell, kind, "all-equal");
      check_selector(triples, queries, ell, kind, "triplicated");
    }
  }
}

TEST(SelectorParity, EuclideanRawNeighboursSharingOneSqrt) {
  // Pairs of rows whose squared sums are adjacent doubles r < next(r) with
  // one correctly rounded sqrt: both keys carry the same distance, so a
  // bound applied to raw scores instead of through reject_threshold_sq
  // would drop the larger-raw, smaller-id partner.  Every row belongs to
  // such a pair, so whichever row the seed lands on has one.  Rows are
  // (1, b) queried at the origin: raw = 1 + b·b, the kernel's exact
  // operation sequence, and stepping b by one ulp moves raw by at most one.
  VectorShard shard;
  Rng rng(0x5017ULL);
  for (std::size_t attempt = 0; attempt < 20000 && shard.points.size() < 2 * 1200; ++attempt) {
    const double b = 0.25 + 0.5 * rng.uniform01();
    const double r = 1.0 + b * b;
    double b_next = b;
    for (std::size_t step = 0; step < 64 && 1.0 + b_next * b_next == r; ++step) {
      b_next = std::nextafter(b_next, 1.0);
    }
    const double r_next = 1.0 + b_next * b_next;
    if (r_next != std::nextafter(r, 4.0) || std::sqrt(r) != std::sqrt(r_next)) continue;
    const std::uint64_t id = 1000 + 4 * shard.points.size();
    shard.points.push_back(PointD(std::vector<double>{1.0, b}));
    shard.ids.push_back(id + 2);
    shard.points.push_back(PointD(std::vector<double>{1.0, b_next}));
    shard.ids.push_back(id);  // larger raw, smaller id: first in Key order
  }
  ASSERT_EQ(shard.points.size(), 2u * 1200);
  const std::vector<PointD> origin = {PointD(std::vector<double>{0.0, 0.0})};
  for (const std::size_t ell : {1, 2, 3, 16, 63, 64, 65, 255}) {
    check_selector(shard, origin, ell, MetricKind::Euclidean, "sqrt-pairs");
  }
  // One tile of 4·ℓ rows samples every row, so the seed is exactly the
  // ℓ-th smallest raw score; with ℓ odd that is the smaller-raw member of
  // a pair, and the answer holds its partner instead.
  for (const std::size_t ell : {1, 3, 7, 31, 63, 127, 255}) {
    VectorShard head;
    head.points.assign(shard.points.begin(),
                       shard.points.begin() + static_cast<std::ptrdiff_t>(4 * ell));
    head.ids.assign(shard.ids.begin(), shard.ids.begin() + static_cast<std::ptrdiff_t>(4 * ell));
    check_selector(head, origin, ell, MetricKind::Euclidean, "sqrt-pairs, one tile");
  }
}

TEST(SelectorParity, AscendingAndDescendingRows) {
  // Sorted rows make the strided sample its most skewed: ascending puts
  // every answer at the front of the tile, descending at the back.
  const std::vector<PointD> origin = {PointD(std::vector<double>{0.0})};
  for (const std::size_t n : {1024, 2085}) {
    std::vector<double> up(n);
    for (std::size_t i = 0; i < n; ++i) up[i] = 0.5 * static_cast<double>(i);
    std::vector<double> down(up.rbegin(), up.rend());
    for (const MetricKind kind : kAllKinds) {
      for (const std::size_t ell : {1, 16, 64, 255}) {
        check_selector(line_shard(up), origin, ell, kind, "ascending");
        check_selector(line_shard(down), origin, ell, kind, "descending");
      }
    }
  }
}

TEST(SelectorParity, TilesAroundTheSeedingSizeAndEllAtLeastRows) {
  // A tile seeds only with ≥ 4·cap rows: sizes just below, at and above
  // that edge, and ℓ ≥ n (cap = n: never seeded).
  Rng rng(0x4CA9ULL);
  for (const std::size_t cap : {1, 5, 64, 200}) {
    for (const std::size_t n : {4 * cap - 1, 4 * cap, 4 * cap + 1}) {
      if (n == 0) continue;
      VectorShard shard;
      for (std::size_t i = 0; i < n; ++i) {
        shard.points.push_back(random_point(8, CoordMode::Continuous, rng));
        shard.ids.push_back(1 + 2 * i);
      }
      const std::vector<PointD> queries = {random_point(8, CoordMode::Continuous, rng),
                                           random_point(8, CoordMode::Continuous, rng),
                                           random_point(8, CoordMode::Continuous, rng)};
      for (const MetricKind kind : kAllKinds) {
        check_selector(shard, queries, cap, kind, "seed edge");
        check_selector(shard, queries, n, kind, "ell == n");
        check_selector(shard, queries, n + 3, kind, "ell > n");
      }
    }
  }
}

TEST(SelectorParity, MultiTileRandomClouds) {
  // Several tiles per store and grid ties, across a batch of queries (the
  // register-blocked entry feeds each query's seed its own tile row).
  Rng rng(0x7115ULL);
  for (const std::size_t n : {1025, 3000}) {
    for (const CoordMode mode : {CoordMode::Continuous, CoordMode::Grid}) {
      VectorShard shard;
      for (std::size_t i = 0; i < n; ++i) {
        shard.points.push_back(random_point(5, mode, rng));
        shard.ids.push_back(3 + 4 * ((i * 7919) % n));
      }
      std::vector<PointD> queries;
      for (std::size_t q = 0; q < 11; ++q) queries.push_back(random_point(5, mode, rng));
      for (const MetricKind kind : kAllKinds) {
        for (const std::size_t ell : {1, 10, 64, 256}) {
          check_selector(shard, queries, ell, kind, "multi-tile");
        }
      }
    }
  }
}

TEST(SelectorParity, LowRankGuessFailsIntoTheFallback) {
  // The seed samples rows 0, s, 2s, … with s = n / (4·cap) and first tries
  // a low order statistic of that sample.  Here the sampled rows are the
  // nearest ones and every other row is far, so fewer than cap rows score
  // at or below the guess and the bound must fall back to the sample's
  // cap-th smallest — which is exactly the answer's last key.
  const std::vector<PointD> origin = {PointD(std::vector<double>{0.0})};
  constexpr std::size_t n = 1024;
  for (const std::size_t cap : {16, 64}) {
    const std::size_t stride = n / (4 * cap);
    std::vector<double> xs(n);
    for (std::size_t row = 0; row < n; ++row) {
      const bool sampled = row % stride == 0 && row / stride < 4 * cap;
      xs[row] = sampled ? static_cast<double>(row / stride) : 5000.0 + static_cast<double>(row);
    }
    for (const MetricKind kind : kAllKinds) {
      check_selector(line_shard(xs), origin, cap, kind, "guess fails");
    }
  }
}

TEST(SimdParity, HybridAndParallelDriverPerIsa) {
  // The full serving path — kd-tree hybrid pruning and the work-stealing
  // parallel brute path — under each pinned ISA, against the functor
  // reference.  Covers the dispatch hand-off inside pool workers and the
  // RangeTopEll threshold()-driven subtree skipping.
  const auto isas = supported_isas();
  Rng rng(0xD121BULL);
  auto points = uniform_points(1800, 6, 50.0, rng);
  const auto shards = make_vector_shards(std::move(points), 3, PartitionScheme::RoundRobin, rng);
  const auto queries = uniform_points(4, 6, 50.0, rng);
  const std::uint64_t ell = 31;
  for (const MetricKind kind : kAllKinds) {
    std::vector<std::vector<std::vector<Key>>> expected(queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      for (const auto& shard : shards) {
        expected[q].push_back(reference_top_ell(shard, queries[q], kind, ell));
      }
    }
    for (const simd::Isa isa : isas) {
      std::ostringstream trace;
      trace << simd::isa_name(isa) << " metric=" << metric_kind_name(kind);
      SCOPED_TRACE(trace.str());
      ForcedIsa pin(isa);
      for (const ScoringPolicy policy : {ScoringPolicy::Brute, ScoringPolicy::Tree}) {
        const auto indexes = make_shard_indexes(shards, policy, 32);
        const auto got = score_vector_shards_batch(indexes, queries, ell, kind,
                                                   BatchScoringConfig{.threads = 3});
        for (std::size_t q = 0; q < queries.size(); ++q) {
          for (std::size_t m = 0; m < shards.size(); ++m) {
            expect_same_keys(expected[q][m], got[q][m],
                             policy == ScoringPolicy::Tree ? "tree" : "brute");
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace dknn
