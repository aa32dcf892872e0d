#include "seq/scoring_policy.hpp"

namespace dknn {

const char* scoring_policy_name(ScoringPolicy policy) {
  switch (policy) {
    case ScoringPolicy::Brute: return "brute";
    case ScoringPolicy::Tree: return "tree";
    case ScoringPolicy::Auto: return "auto";
  }
  return "unknown";
}

namespace {

/// One row of the measured routing table: for shards of dimension ≤
/// max_dim, the kd-hybrid beat the fused dense scan on the calibration
/// grid exactly when the shard size fell in [min_n, max_n].
struct CalibrationBand {
  std::size_t max_dim;
  std::size_t min_n;
  std::size_t max_n;
};

/// Derived from bench_scenarios' `calibration` stanza (brute vs hybrid
/// timings + measured leaf-visit rates over an (n, dim, distribution)
/// grid; rows checked in with BENCH_scenarios.json):
///
///   * dim ≤ 8 — measured scan_fraction falls with n (0.46 at 16k, 0.16
///     at 40k, d = 8 uniform) and the tree won every cell from n = 2048
///     up, both data shapes; no upper bound.
///   * dim 9–16 — the tree won both shapes at n = 5k/8k/16k (clustered
///     scan_fraction stays ≈ 0.3; uniform saturates but the bound tests
///     are cheap), and lost on uniform data by ≥ 2× at n = 40k where
///     per-leaf kernel dispatch over ~n/256 surviving leaves costs more
///     than one fused scan — hence the upper bound.
///   * dim 17–24 — same shape, narrower band: won both shapes at 8k,
///     mixed at 16k, clearly lost above.
///   * dim > 24 — never recovered the traversal overhead on uniform data
///     and only broke even on clustered; brute.
///
/// The old heuristic (`dim ≤ 16 && n ≥ max(2048, 2^dim)`) erred both
/// ways: it hard-rejected every dim > 16 shard (clustered d = 24 wins by
/// 2× at n = 8192) and routed huge uniform d = 16 shards (n ≥ 65536,
/// measured scan_fraction 1.0) into the tree.  Routing is the only thing
/// that changes — both paths return byte-identical keys (fuzzed in
/// tests/test_parity.cpp), and the old-vs-new decision table is pinned in
/// tests/test_seq.cpp.
constexpr CalibrationBand kCalibration[] = {
    {8, 2048, SIZE_MAX},
    {16, 4096, 16384},
    {24, 4096, 8192},
};

}  // namespace

bool tree_pays_off(std::size_t n, std::size_t dim) {
  if (dim == 0) return false;
  for (const CalibrationBand& band : kCalibration) {
    if (dim <= band.max_dim) return n >= band.min_n && n <= band.max_n;
  }
  return false;
}

}  // namespace dknn
