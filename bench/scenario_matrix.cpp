// bench_scenarios — the scenario & SLO matrix behind BENCH_scenarios.json.
//
// Where bench_serve times one canonical workload, this harness sweeps the
// regimes the paper's efficiency claims have to survive (PANDA reports
// scaling across dataset shapes and dimensionalities; Debatty et al.'s
// online evaluation is skewed, churning traffic):
//
//   * data distribution — uniform box vs Gaussian-mixture clusters;
//   * dimensionality    — d ∈ {2, 8, 64, 256};
//   * query skew        — uniform vs Zipf(s = 1.1) popularity over the pool;
//   * churn skew        — uniform-victim vs Zipf-victim (hot-key) deletes;
//   * delete storms     — 40 % of the live set erased in one burst;
//   * offered load      — an *open-loop* Poisson-arrival sweep.
//
// Every stanza drives the KnnService facade (live mode, 2 machines, serial
// scoring) and reports p50/p95/p99/p999 from the shared ceil-nearest-rank
// quantile module (bench/latency.hpp — unit-tested in tests/test_latency.cpp)
// plus the kd-hybrid's traversal counters (ServiceStats::tree), so each row
// says not just how fast but *why*: scan_fraction is the fraction of
// resident rows the kernels actually touched.
//
// Closed-loop vs open-loop (see bench/README.md): the closed-loop stanzas
// time one query after another — latency excludes queueing by construction
// and throughput is the service's capacity.  The open_loop stanza schedules
// Poisson arrivals at a fixed offered QPS and measures each answer from its
// *scheduled arrival time*, so when offered load exceeds capacity the queue
// delay shows up in the tail instead of silently stretching the clock —
// that is the latency-vs-offered-QPS curve SLOs are stated against.
//
// The `calibration` stanza is the feedback loop into the engine: it times
// brute vs kd-hybrid scoring over an (n, dim, distribution) grid and
// records each cell's measured scan_fraction.  The tree_pays_off table in
// src/seq/scoring_policy.cpp is derived from these rows (routing only —
// both paths return byte-identical keys, fuzzed in tests/test_parity.cpp).
//
//   ./bench_scenarios [--json=BENCH_scenarios.json] [--n=40000] [--ell=32]
//                     [--queries=400] [--seed=5]

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/latency.hpp"
#include "core/knn_service.hpp"
#include "data/generators.hpp"
#include "data/simd/dispatch.hpp"
#include "obs/metrics.hpp"
#include "rng/sampling.hpp"
#include "support/cli.hpp"
#include "support/timer.hpp"

namespace {

using namespace dknn;

struct Config {
  std::size_t n = 40000;
  std::size_t ell = 32;
  std::size_t queries = 400;
  std::uint64_t seed = 5;
};

constexpr std::uint32_t kMachines = 2;
constexpr std::size_t kQueryPool = 256;
constexpr double kZipfSkew = 1.1;

enum class DataKind { Uniform, Clustered };
enum class Skew { Uniform, Zipf };
enum class Churn { None, Uniform, Zipf, Storm };

const char* data_name(DataKind k) { return k == DataKind::Uniform ? "uniform" : "clustered"; }
const char* skew_name(Skew s) { return s == Skew::Uniform ? "uniform" : "zipf"; }
const char* churn_name(Churn c) {
  switch (c) {
    case Churn::None: return "none";
    case Churn::Uniform: return "uniform";
    case Churn::Zipf: return "zipf";
    case Churn::Storm: return "storm";
  }
  return "?";
}

std::vector<PointD> make_dataset(DataKind kind, std::size_t n, std::size_t dim, Rng& rng) {
  if (kind == DataKind::Uniform) return uniform_points(n, dim, 100.0, rng);
  // Tight clusters (spread 2 in a ±100 box): the regime where bounding-box
  // pruning keeps paying beyond the uniform curse-of-dimensionality cutoff.
  const GaussianMixture mix(ClusterSpec{.dim = dim, .clusters = 8, .center_box = 100.0,
                                        .spread = 2.0},
                            rng);
  std::vector<PointD> points;
  points.reserve(n);
  for (auto& lp : mix.sample(n, rng)) points.push_back(std::move(lp.x));
  return points;
}

/// One closed-loop scenario's definition.
struct Scenario {
  const char* name;
  DataKind data;
  std::size_t dim;
  Skew query_skew = Skew::Uniform;
  Churn churn = Churn::None;
  /// Scale factors against the global config (high-d stanzas shrink so the
  /// matrix stays minutes, not hours, at the default size).
  std::size_t n_div = 1;
  std::size_t q_div = 1;
  bool cache = false;  ///< result cache on (the zipf-queries story) or off
};

/// One scenario's measured row.
struct Row {
  Scenario scenario;
  std::size_t n = 0;
  std::size_t queries = 0;
  double queries_per_sec = 0.0;
  bench::LatencySummary latency;
  double cache_hit_rate = 0.0;
  TreeStats tree;
  std::uint64_t debt_before = 0, debt_after = 0;  ///< storm stanza only
};

KnnService build_service(std::vector<PointD> points, std::size_t ell, std::uint64_t seed,
                         bool cache) {
  return KnnServiceBuilder()
      .machines(kMachines)
      .ell(ell)
      .policy(ScoringPolicy::Auto)
      .live()
      .cache_capacity(cache ? 4096 : 0)
      .scoring(BatchScoringConfig{.threads = 1})
      .seed(seed)
      .dataset(std::move(points))
      .build();
}

/// Closed-loop stanza: queries back to back, optional churn interleaved
/// (one insert+delete pair per 4 queries), latency timed per call.
Row run_closed_loop(const Scenario& s, const Config& cfg) {
  Row row;
  row.scenario = s;
  row.n = cfg.n / s.n_div;
  row.queries = std::max<std::size_t>(8, cfg.queries / s.q_div);

  Rng rng(cfg.seed);
  KnnService service = build_service(make_dataset(s.data, row.n, s.dim, rng), cfg.ell,
                                     cfg.seed, s.cache);
  const auto query_pool = make_dataset(s.data, kQueryPool, s.dim, rng);
  std::vector<PointId> live = service.live_ids();
  PointId next_id = 1;

  if (s.churn == Churn::Storm) {
    // The storm hits before the measured window: 40 % of the live set
    // erased in one burst, so every query below runs against a store full
    // of tombstones.  debt_before/debt_after bracket the compact_now()
    // that ends the stanza.
    Rng storm(cfg.seed + 7);
    const std::size_t victims = live.size() * 2 / 5;
    for (std::size_t i = 0; i < victims; ++i) {
      const std::size_t at = storm.below(live.size());
      (void)service.erase(live[at]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
    }
    row.debt_before = service.compaction_debt();
  }

  const ZipfSampler query_zipf(kQueryPool, kZipfSkew);
  const ZipfSampler churn_zipf(live.size(), kZipfSkew);
  Rng traffic(cfg.seed + 1);
  Rng churn_rng(cfg.seed + 2);

  std::vector<double> latencies_ms;
  latencies_ms.reserve(row.queries);
  const WallTimer total;
  for (std::size_t q = 0; q < row.queries; ++q) {
    if ((s.churn == Churn::Uniform || s.churn == Churn::Zipf) && q % 4 == 0) {
      while (service.contains(next_id)) ++next_id;
      service.insert(uniform_points(1, s.dim, 100.0, churn_rng)[0], next_id);
      live.push_back(next_id++);
      // Zipf churn deletes by popularity rank — the hot-key expiry pattern
      // (a few ids take most of the delete traffic).
      const std::size_t at = s.churn == Churn::Zipf
                                 ? std::min(churn_zipf.sample(churn_rng), live.size() - 1)
                                 : static_cast<std::size_t>(churn_rng.below(live.size()));
      (void)service.erase(live[at]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
    }
    const std::size_t pick = s.query_skew == Skew::Zipf
                                 ? query_zipf.sample(traffic)
                                 : static_cast<std::size_t>(traffic.below(kQueryPool));
    const WallTimer timer;
    const auto result = service.query(query_pool[pick]);
    latencies_ms.push_back(ns_to_ms(timer.elapsed_ns()));
    if (result.keys.empty()) std::fprintf(stderr, "%s: empty answer?!\n", s.name);
  }
  const double total_sec = total.elapsed_sec();

  const ServiceStats stats = service.stats();
  row.cache_hit_rate = stats.queries == 0 ? 0.0
                                          : static_cast<double>(stats.cache_hits) /
                                                static_cast<double>(stats.queries);
  row.tree = stats.tree;
  row.latency = bench::summarize_latencies(latencies_ms);
  row.queries_per_sec = static_cast<double>(row.latency.count) / total_sec;
  if (s.churn == Churn::Storm) {
    (void)service.compact_now();
    row.debt_after = service.compaction_debt();
  }
  return row;
}

/// One offered-QPS level of the open-loop sweep.
struct OpenLoopLevel {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  bench::LatencySummary latency;
};

/// Open-loop stanza: Poisson arrivals at `offered_qps`, one single-threaded
/// server draining them in order.  Latency is measured from each query's
/// *scheduled arrival* — an arrival that finds the server busy waits, and
/// that queueing delay is the point: past saturation the tail grows without
/// bound instead of the clock politely slowing down.
OpenLoopLevel run_open_loop_level(KnnService& service, std::span<const PointD> pool,
                                  double offered_qps, std::size_t arrivals,
                                  std::uint64_t seed) {
  using Clock = std::chrono::steady_clock;
  OpenLoopLevel level;
  level.offered_qps = offered_qps;
  Rng traffic(seed);
  std::vector<double> latencies_ms;
  latencies_ms.reserve(arrivals);

  const auto start = Clock::now();
  double next_arrival_sec = 0.0;
  for (std::size_t i = 0; i < arrivals; ++i) {
    // Exponential inter-arrival times → Poisson process at offered_qps.
    const double u = traffic.uniform01();
    next_arrival_sec += -std::log(1.0 - u) / offered_qps;
    const auto arrival = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(next_arrival_sec));
    // Idle until the scheduled arrival (an on-time server); a late server
    // (now > arrival) starts immediately — the wait it already incurred is
    // queueing delay and lands in the measurement below.
    std::this_thread::sleep_until(arrival);
    const std::size_t pick = static_cast<std::size_t>(traffic.below(pool.size()));
    const auto result = service.query(pool[pick]);
    const auto done = Clock::now();
    latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(done - arrival).count());
    if (result.keys.empty()) std::fprintf(stderr, "open-loop: empty answer?!\n");
  }
  const double total_sec = std::chrono::duration<double>(Clock::now() - start).count();
  level.latency = bench::summarize_latencies(latencies_ms);
  level.achieved_qps = total_sec > 0.0 ? static_cast<double>(arrivals) / total_sec : 0.0;
  return level;
}

/// One cell of the routing-calibration grid: brute vs kd-hybrid over the
/// same points, same queries — identical keys (asserted), different cost.
struct CalibrationCell {
  std::size_t n = 0;
  std::size_t dim = 0;
  DataKind data = DataKind::Uniform;
  double scan_fraction = 0.0;
  double brute_ms_per_query = 0.0;
  double tree_ms_per_query = 0.0;
  bool tree_wins = false;
};

CalibrationCell run_calibration_cell(std::size_t n, std::size_t dim, DataKind data,
                                     std::size_t ell, std::uint64_t seed) {
  CalibrationCell cell;
  cell.n = n;
  cell.dim = dim;
  cell.data = data;

  Rng rng(seed);
  const auto points = make_dataset(data, n, dim, rng);
  const auto queries = make_dataset(data, 32, dim, rng);
  std::vector<PointId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = i + 1;

  const FlatStore flat(points, ids);
  const KdRangeIndex tree(points, ids);
  KernelScratch scratch;
  std::vector<std::vector<Key>> brute_out, tree_out;

  {
    const WallTimer t;
    fused_top_ell_batch(flat, queries, ell, MetricKind::SquaredEuclidean, brute_out, scratch);
    cell.brute_ms_per_query = ns_to_ms(t.elapsed_ns()) / static_cast<double>(queries.size());
  }
  tree.reset_stats();
  {
    const WallTimer t;
    hybrid_top_ell_batch(tree, queries, ell, MetricKind::SquaredEuclidean, tree_out, scratch);
    cell.tree_ms_per_query = ns_to_ms(t.elapsed_ns()) / static_cast<double>(queries.size());
  }
  // Routing must never change an answer: both paths' keys are byte-equal.
  for (std::size_t q = 0; q < queries.size(); ++q) {
    if (brute_out[q] != tree_out[q]) {
      std::fprintf(stderr, "calibration parity violation at n=%zu dim=%zu!\n", n, dim);
      std::exit(2);
    }
  }
  cell.scan_fraction = tree.stats().scan_fraction(n);
  cell.tree_wins = cell.tree_ms_per_query < cell.brute_ms_per_query;
  return cell;
}

// --- JSON emission -----------------------------------------------------------

void write_latency_object(std::FILE* f, const bench::LatencySummary& s) {
  std::fprintf(f,
               "{\"count\": %zu, \"min\": %.4f, \"mean\": %.4f, \"max\": %.4f, "
               "\"p50\": %.4f, \"p95\": %.4f, \"p99\": %.4f, \"p999\": %.4f}",
               s.count, s.min_ms, s.mean_ms, s.max_ms, s.p50_ms, s.p95_ms, s.p99_ms,
               s.p999_ms);
}

void write_tree_object(std::FILE* f, const TreeStats& t, std::size_t n) {
  std::fprintf(f,
               "{\"queries\": %" PRIu64 ", \"nodes_visited\": %" PRIu64
               ", \"subtrees_pruned\": %" PRIu64 ", \"leaves_scored\": %" PRIu64
               ", \"points_scored\": %" PRIu64 ", \"scan_fraction\": %.4f}",
               t.queries, t.nodes_visited, t.subtrees_pruned, t.leaves_scored,
               t.points_scored, t.scan_fraction(n));
}

void write_row(std::FILE* f, const Row& row) {
  const Scenario& s = row.scenario;
  std::fprintf(f,
               "    \"%s\": {\"mode\": \"closed-loop\", \"n\": %zu, \"dim\": %zu, "
               "\"data\": \"%s\", \"query_skew\": \"%s\", \"churn\": \"%s\", "
               "\"queries\": %zu, \"queries_per_sec\": %.1f, \"cache_hit_rate\": %.3f,\n",
               s.name, row.n, s.dim, data_name(s.data), skew_name(s.query_skew),
               churn_name(s.churn), row.queries, row.queries_per_sec, row.cache_hit_rate);
  std::fprintf(f, "      \"latency_ms\": ");
  write_latency_object(f, row.latency);
  std::fprintf(f, ",\n      \"tree\": ");
  // Per-machine resident count is what the traversal sees.
  write_tree_object(f, row.tree, std::max<std::size_t>(1, row.n / kMachines));
  if (s.churn == Churn::Storm) {
    std::fprintf(f, ",\n      \"debt_before\": %" PRIu64 ", \"debt_after\": %" PRIu64,
                 row.debt_before, row.debt_after);
  }
  std::fprintf(f, "},\n");
}

int emit_json(const std::string& path, const Config& cfg) {
  // --- closed-loop matrix ---------------------------------------------------
  const std::vector<Scenario> matrix = {
      {.name = "uniform_d2", .data = DataKind::Uniform, .dim = 2},
      {.name = "uniform_d8", .data = DataKind::Uniform, .dim = 8},
      {.name = "uniform_d64", .data = DataKind::Uniform, .dim = 64, .n_div = 2, .q_div = 2},
      {.name = "uniform_d256", .data = DataKind::Uniform, .dim = 256, .n_div = 4, .q_div = 4},
      {.name = "clustered_d8", .data = DataKind::Clustered, .dim = 8},
      {.name = "clustered_d64", .data = DataKind::Clustered, .dim = 64, .n_div = 2, .q_div = 2},
      {.name = "zipf_queries_d8", .data = DataKind::Uniform, .dim = 8,
       .query_skew = Skew::Zipf, .cache = true},
      {.name = "zipf_churn_d8", .data = DataKind::Uniform, .dim = 8, .churn = Churn::Zipf},
      {.name = "uniform_churn_d8", .data = DataKind::Uniform, .dim = 8,
       .churn = Churn::Uniform},
      {.name = "delete_storm_d8", .data = DataKind::Uniform, .dim = 8, .churn = Churn::Storm},
  };
  std::vector<Row> rows;
  rows.reserve(matrix.size());
  for (const Scenario& s : matrix) {
    rows.push_back(run_closed_loop(s, cfg));
    const Row& r = rows.back();
    std::printf("%-18s %8.1f q/s  p50 %.3f  p99 %.3f  p999 %.3f ms  scan %.3f\n", s.name,
                r.queries_per_sec, r.latency.p50_ms, r.latency.p99_ms, r.latency.p999_ms,
                r.tree.scan_fraction(std::max<std::size_t>(1, r.n / kMachines)));
  }

  // --- obs-overhead A/B -----------------------------------------------------
  // The canonical stanza twice over: metrics registry disabled (every
  // instrument collapses to one relaxed load + branch) vs enabled with trace
  // sampling off.  Fresh service per arm; budget is <= 3% throughput cost.
  const Scenario obs_scenario{.name = "obs_overhead", .data = DataKind::Uniform, .dim = 8};
  // Long arms: the instruments cost nanoseconds, so short arms would
  // measure scheduler jitter instead of overhead.
  Config obs_cfg = cfg;
  obs_cfg.queries = std::max<std::size_t>(obs_cfg.queries, 2000);
  obs::registry().set_enabled(false);
  const Row obs_off = run_closed_loop(obs_scenario, obs_cfg);
  obs::registry().set_enabled(true);
  const Row obs_on = run_closed_loop(obs_scenario, obs_cfg);
  const double obs_overhead = obs_off.queries_per_sec > 0.0
                                  ? 1.0 - obs_on.queries_per_sec / obs_off.queries_per_sec
                                  : 0.0;
  std::printf("obs overhead %.1f%% (metrics on %.0f vs off %.0f q/s)\n", 100.0 * obs_overhead,
              obs_on.queries_per_sec, obs_off.queries_per_sec);

  // --- open-loop QPS sweep --------------------------------------------------
  // Offered levels are anchored to the *measured* closed-loop capacity of
  // the matching stanza (uniform_d8), so the sweep brackets saturation on
  // any box: comfortably below, at the knee, and past it.
  const double capacity_qps = rows[1].queries_per_sec;
  const std::vector<double> load_factors = {0.25, 0.5, 0.8, 1.2};
  std::vector<OpenLoopLevel> levels;
  {
    Rng rng(cfg.seed);
    KnnService service = build_service(make_dataset(DataKind::Uniform, cfg.n, 8, rng),
                                       cfg.ell, cfg.seed, /*cache=*/false);
    const auto pool = make_dataset(DataKind::Uniform, kQueryPool, 8, rng);
    const std::size_t arrivals = std::max<std::size_t>(16, cfg.queries / 2);
    for (std::size_t i = 0; i < load_factors.size(); ++i) {
      const double offered = std::max(1.0, capacity_qps * load_factors[i]);
      levels.push_back(run_open_loop_level(service, pool, offered, arrivals,
                                           cfg.seed + 31 + i));
      const OpenLoopLevel& l = levels.back();
      std::printf("open-loop %5.0f offered q/s -> %5.0f achieved, p50 %.3f  p99 %.3f  "
                  "p999 %.3f ms\n",
                  l.offered_qps, l.achieved_qps, l.latency.p50_ms, l.latency.p99_ms,
                  l.latency.p999_ms);
    }
  }

  // --- tree_pays_off calibration grid ---------------------------------------
  // Two population sizes bracketing the routing threshold region, dims
  // spanning where the tree clearly wins (low d) through where uniform data
  // defeats pruning (high d), both data shapes.
  const std::size_t n_small = std::max<std::size_t>(1024, cfg.n / 8);
  const std::size_t n_large = std::max<std::size_t>(2048, cfg.n);
  std::vector<CalibrationCell> cells;
  for (const std::size_t n : {n_small, n_large}) {
    for (const std::size_t dim : {std::size_t{2}, std::size_t{4}, std::size_t{8},
                                  std::size_t{12}, std::size_t{16}, std::size_t{24},
                                  std::size_t{32}, std::size_t{48}}) {
      for (const DataKind data : {DataKind::Uniform, DataKind::Clustered}) {
        cells.push_back(run_calibration_cell(n, dim, data, cfg.ell, cfg.seed + dim));
        const CalibrationCell& c = cells.back();
        std::printf("calibrate n=%-6zu d=%-3zu %-9s scan %.3f  brute %.3f ms  tree %.3f ms"
                    "  -> %s\n",
                    c.n, c.dim, data_name(c.data), c.scan_fraction, c.brute_ms_per_query,
                    c.tree_ms_per_query, c.tree_wins ? "tree" : "brute");
      }
    }
  }

  // --- JSON -----------------------------------------------------------------
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"scenarios\",\n");
  std::fprintf(f,
               "  \"config\": {\"n\": %zu, \"ell\": %zu, \"queries\": %zu, \"seed\": %" PRIu64
               ", \"machines\": %u, \"query_pool\": %zu, \"zipf_s\": %.1f, "
               "\"metric\": \"squared-euclidean\", \"threads\": 1, \"simd_isa\": \"%s\"},\n",
               cfg.n, cfg.ell, cfg.queries, cfg.seed, kMachines, kQueryPool, kZipfSkew,
               simd::isa_name(simd::active_isa()));
  std::fprintf(f, "  \"scenarios\": {\n");
  for (const Row& row : rows) write_row(f, row);

  std::fprintf(f,
               "    \"obs_overhead\": {\"mode\": \"obs-overhead\", \"n\": %zu, \"dim\": 8, "
               "\"queries\": %zu, \"metrics_on_qps\": %.1f, \"metrics_off_qps\": %.1f, "
               "\"overhead_fraction\": %.4f, \"budget_fraction\": 0.03},\n",
               obs_on.n, obs_on.queries, obs_on.queries_per_sec, obs_off.queries_per_sec,
               obs_overhead);

  std::fprintf(f,
               "    \"open_loop_qps_d8\": {\"mode\": \"open-loop\", \"n\": %zu, \"dim\": 8, "
               "\"data\": \"uniform\", \"arrivals\": \"poisson\", "
               "\"capacity_qps\": %.1f, \"levels\": [\n",
               cfg.n, capacity_qps);
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const OpenLoopLevel& l = levels[i];
    std::fprintf(f, "      {\"offered_qps\": %.1f, \"achieved_qps\": %.1f, \"latency_ms\": ",
                 l.offered_qps, l.achieved_qps);
    write_latency_object(f, l.latency);
    std::fprintf(f, "}%s\n", i + 1 < levels.size() ? "," : "");
  }
  std::fprintf(f, "    ]},\n");

  std::fprintf(f, "    \"calibration\": {\"mode\": \"calibration\", \"ell\": %zu, "
                  "\"queries_per_cell\": 32, \"grid\": [\n",
               cfg.ell);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CalibrationCell& c = cells[i];
    std::fprintf(f,
                 "      {\"n\": %zu, \"dim\": %zu, \"data\": \"%s\", "
                 "\"scan_fraction\": %.4f, \"brute_ms_per_query\": %.4f, "
                 "\"tree_ms_per_query\": %.4f, \"tree_wins\": %s}%s\n",
                 c.n, c.dim, data_name(c.data), c.scan_fraction, c.brute_ms_per_query,
                 c.tree_ms_per_query, c.tree_wins ? "true" : "false",
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "    ]}\n  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu closed-loop stanzas, %zu open-loop levels, %zu calibration "
              "cells)\n",
              path.c_str(), rows.size(), levels.size(), cells.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  cli.add_flag("json", "write BENCH_scenarios.json to this path (empty = print only)", "");
  cli.add_flag("n", "resident points per full-size stanza", "40000");
  cli.add_flag("ell", "neighbors per query", "32");
  cli.add_flag("queries", "measured queries per full-size stanza", "400");
  cli.add_flag("seed", "experiment seed", "5");
  if (!cli.parse(argc, argv)) return 0;

  Config cfg;
  cfg.n = cli.get_uint("n");
  cfg.ell = cli.get_uint("ell");
  cfg.queries = cli.get_uint("queries");
  cfg.seed = cli.get_uint("seed");

  const std::string json_path = cli.get("json");
  if (!json_path.empty()) return emit_json(json_path, cfg);

  // No JSON target: run the canonical stanza and print it.
  const Row row = run_closed_loop(
      Scenario{.name = "uniform_d8", .data = DataKind::Uniform, .dim = 8}, cfg);
  std::printf("uniform_d8: %.0f queries/sec, p50 %.3f ms, p95 %.3f ms, p99 %.3f ms, "
              "p999 %.3f ms\n",
              row.queries_per_sec, row.latency.p50_ms, row.latency.p95_ms, row.latency.p99_ms,
              row.latency.p999_ms);
  return 0;
}
