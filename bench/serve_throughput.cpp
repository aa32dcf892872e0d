// bench_serve — live-serving throughput and latency percentiles.
//
// The serving analogue of bench_micro_kernels' BENCH_kernels.json: a live
// KnnService under churn (inserts + deletes interleaved with traffic,
// periodic compaction) answering queries through its coalescing seat.
// With --json=PATH it times the canonical workload (100k resident points,
// d=8, ℓ=64, skewed 64-point query pool) and writes BENCH_serve.json:
// queries/sec, p50/p95/p99 latency, cache hit rate, and compaction debt.
//
// The `facade` stanza is the single-threaded closed loop: one live
// machine, result cache on, snapshot scoring + the full selection
// protocol per cache miss.  The `facade_concurrent` stanza runs four
// closed-loop submitters through service.query() — the coalescing seat —
// while the main thread churns inserts/erases and compaction against
// them: the lock-free snapshot read path means the mutators never block
// the submitters, and this row is where a reintroduced service-wide query
// lock would show up as a cliff.  Like BENCH_kernels.json's parallel row,
// it is recorded as JSON null on fewer than 4 hardware threads — measuring
// scheduler thrash on a small box would pollute the perf trajectory.  The
// `degraded` stanza shards the same workload over four machines, kills
// one, and serves on: every answer is exact over the survivors at
// coverage 3/4, and the row tracks what guarded scoring + health probes
// cost relative to the healthy facade row.  The `obs_overhead` stanza
// A/Bs the serial facade loop with the metrics registry off and on, and
// the `compaction` row reports the serial facade run's installs (from the
// registry) and its compaction debt before and after.
//
//   ./bench_serve [--json=BENCH_serve.json] [--n=100000] [--dim=8] [--ell=64]
//                 [--queries=2000] [--churn-every=4] [--seed=3]

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/latency.hpp"
#include "core/knn_service.hpp"
#include "data/generators.hpp"
#include "data/simd/dispatch.hpp"
#include "obs/metrics.hpp"
#include "support/cli.hpp"
#include "support/timer.hpp"

namespace {

using namespace dknn;

struct LatencyStats {
  double queries_per_sec = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

// All percentiles come from the shared ceil nearest-rank estimator in
// bench/latency.hpp (unit-tested in tests/test_latency.cpp).  The floored
// `sorted[size_t(p * (n-1))]` this replaces under-reported the tail
// whenever a stanza measured fewer than 1/(1−p) samples.
LatencyStats latency_stats(std::vector<double> latencies_ms, double total_sec) {
  LatencyStats stats;
  if (latencies_ms.empty()) return stats;  // --queries too small for this stanza
  const bench::LatencySummary summary = bench::summarize_latencies(latencies_ms);
  stats.queries_per_sec = static_cast<double>(summary.count) / total_sec;
  stats.p50_ms = summary.p50_ms;
  stats.p95_ms = summary.p95_ms;
  stats.p99_ms = summary.p99_ms;
  return stats;
}

struct Workload {
  std::size_t n = 100000;
  std::size_t dim = 8;
  std::size_t ell = 64;
  std::size_t queries = 2000;
  std::size_t churn_every = 4;  ///< one insert+delete pair per this many queries
  std::uint64_t seed = 3;
};

/// One live facade over the canonical churn workload: a single machine
/// holding `w.n` resident points, the 64-point query pool, and the churn
/// stream.  Serial scoring is pinned (threads = 1) so no stanza quietly
/// goes parallel on a multicore box; with no owned pool, maybe_compact()
/// runs its rounds inline.
struct FacadeRig {
  Rng rng;
  KnnService service;
  std::vector<PointId> live;
  PointId next_id = 1;
  std::vector<PointD> query_pool;

  // `coalesce_delay` is the seat's max_delay: the concurrent stanza keeps
  // a real window so the seat can coalesce submitters; the serial stanza
  // MUST pass zero — a one-thread closed loop never gets company, so any
  // positive delay just adds a fixed sleep to every row.
  FacadeRig(const Workload& w, std::chrono::microseconds coalesce_delay) : rng(w.seed) {
    // seal_threshold 256 so churn actually seals segments mid-run and
    // min_segment_points 1024 then gives compaction real merges to do —
    // the stanzas report maintenance under load, not a frozen store.
    service =
        KnnServiceBuilder()
            .machines(1)
            .ell(w.ell)
            .policy(ScoringPolicy::Auto)
            .live()
            .seal_threshold(256)
            .compaction(CompactionConfig{.max_dead_fraction = 0.2, .min_segment_points = 1024})
            .cache_capacity(4096)
            .scoring(BatchScoringConfig{.threads = 1})
            .coalesce(32, coalesce_delay)
            .seed(w.seed)
            .dataset(uniform_points(w.n, w.dim, 100.0, rng))
            .build();
    // The builder assigned the resident ids; live_ids() recovers them so
    // churn expires resident points, and contains() guards fresh mints.
    live = service.live_ids();
    query_pool = uniform_points(64, w.dim, 100.0, rng);
  }

  /// One unit of churn: a point arrives, another expires.
  void churn() {
    while (service.contains(next_id)) ++next_id;
    service.insert(uniform_points(1, service.dim(), 100.0, rng)[0], next_id);
    live.push_back(next_id++);
    const std::size_t victim = rng.below(live.size());
    (void)service.erase(live[victim]);
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
  }

  [[nodiscard]] double hit_rate() const {
    const ServiceStats stats = service.stats();
    return stats.queries == 0 ? 0.0
                              : static_cast<double>(stats.cache_hits) /
                                    static_cast<double>(stats.queries);
  }
};

/// What the serial facade loop leaves behind besides its latencies.
struct SerialRun {
  LatencyStats latency;
  double hit_rate = 0.0;
  std::uint64_t debt_before = 0;
  std::uint64_t debt_after = 0;
  /// Compaction installs during the run, read off the obs registry (0
  /// when the registry is disabled).
  std::uint64_t installs = 0;
};

/// Single-threaded closed loop through the facade: every query timed
/// individually, churn interleaved, compaction paid inline every 64 churn
/// units.
SerialRun run_facade(const Workload& w) {
  FacadeRig rig(w, std::chrono::microseconds{0});
  obs::Counter& installs = obs::registry().counter("dknn_store_compaction_installs_total");
  const std::uint64_t installs_before = installs.value();
  SerialRun run;
  run.debt_before = rig.service.compaction_debt();
  Rng traffic(w.seed + 1);
  std::vector<double> latencies_ms;
  latencies_ms.reserve(w.queries);
  const WallTimer total;
  for (std::size_t q = 0; q < w.queries; ++q) {
    if (w.churn_every != 0 && q % w.churn_every == 0) {
      rig.churn();
      if (q % (w.churn_every * 64) == 0) (void)rig.service.compact_now();
    }
    const PointD& query = rig.query_pool[traffic.below(rig.query_pool.size())];
    const WallTimer timer;
    const auto result = rig.service.query(query);
    latencies_ms.push_back(ns_to_ms(timer.elapsed_ns()));
    if (result.keys.empty()) std::fprintf(stderr, "empty facade answer?!\n");
  }
  const double total_sec = total.elapsed_sec();
  run.latency = latency_stats(std::move(latencies_ms), total_sec);
  run.hit_rate = rig.hit_rate();
  run.debt_after = rig.service.compaction_debt();
  run.installs = installs.value() - installs_before;
  return run;
}

/// The facade under real read concurrency: four closed-loop submitters
/// through service.query() (the coalescing seat) while the main thread
/// churns inserts/erases and compaction against them.  Queries take no
/// service-wide lock — they score against published snapshots — so the
/// mutator thread never stalls the submitters; compare against the serial
/// `facade` row for the concurrency payoff.  Null below 4 hardware
/// threads.
std::optional<LatencyStats> run_facade_concurrent(const Workload& w,
                                                  std::size_t hardware_threads,
                                                  double* hit_rate, std::uint64_t* batches) {
  if (hardware_threads < 4) return std::nullopt;
  constexpr std::size_t kSubmitters = 4;
  FacadeRig rig(w, std::chrono::microseconds{200});
  const std::size_t per_thread = w.queries / kSubmitters;
  std::vector<std::vector<double>> latencies(kSubmitters);
  std::vector<std::thread> threads;
  const WallTimer total;
  for (std::size_t t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&rig, &latencies, w, t, per_thread] {
      Rng traffic(w.seed + 200 + t);
      latencies[t].reserve(per_thread);
      for (std::size_t q = 0; q < per_thread; ++q) {
        const PointD& query = rig.query_pool[traffic.below(rig.query_pool.size())];
        const WallTimer timer;
        const auto result = rig.service.query(query);
        latencies[t].push_back(ns_to_ms(timer.elapsed_ns()));
        if (result.keys.empty()) std::fprintf(stderr, "empty facade answer?!\n");
      }
    });
  }
  // Churn rides the main thread while submitters run: inserts, erases and
  // periodic compaction race the lock-free readers.
  const std::size_t churn_ops = w.queries / std::max<std::size_t>(1, w.churn_every);
  for (std::size_t c = 0; c < churn_ops; ++c) {
    rig.churn();
    if (c % 64 == 0) (void)rig.service.maybe_compact();
  }
  for (auto& thread : threads) thread.join();
  const double total_sec = total.elapsed_sec();
  *hit_rate = rig.hit_rate();
  *batches = rig.service.stats().batches;
  std::vector<double> merged;
  for (auto& part : latencies) merged.insert(merged.end(), part.begin(), part.end());
  return latency_stats(std::move(merged), total_sec);
}

/// Degraded serving: the facade workload sharded over four machines with
/// one of them dead.  Every answer is exact over the three survivors and
/// carries coverage 3/4; the row tracks what the guarded scoring path and
/// the health probes cost relative to the healthy facade stanza.
LatencyStats run_degraded(const Workload& w, double* coverage) {
  Rng rng(w.seed);
  constexpr std::uint32_t kMachines = 4;
  KnnService service =
      KnnServiceBuilder()
          .machines(kMachines)
          .ell(w.ell)
          .policy(ScoringPolicy::Auto)
          .live()
          .seal_threshold(256)
          .cache_capacity(4096)
          .scoring(BatchScoringConfig{.threads = 1})
          .fault_tolerant()
          .seed(w.seed)
          .dataset(uniform_points(w.n, w.dim, 100.0, rng))
          .build();
  service.kill_machine(kMachines - 1);
  const auto query_pool = uniform_points(64, w.dim, 100.0, rng);

  Rng traffic(w.seed + 1);
  std::vector<double> latencies_ms;
  latencies_ms.reserve(w.queries);
  *coverage = 1.0;
  const WallTimer total;
  for (std::size_t q = 0; q < w.queries; ++q) {
    const PointD& query = query_pool[traffic.below(query_pool.size())];
    const WallTimer timer;
    const auto result = service.query(query);
    latencies_ms.push_back(ns_to_ms(timer.elapsed_ns()));
    *coverage = result.coverage.fraction();
    if (result.keys.empty()) std::fprintf(stderr, "empty degraded answer?!\n");
  }
  const double total_sec = total.elapsed_sec();
  return latency_stats(std::move(latencies_ms), total_sec);
}

void write_latency(std::FILE* f, const char* name, const std::optional<LatencyStats>& stats,
                   const char* extra, bool trailing_comma) {
  if (stats.has_value()) {
    std::fprintf(f,
                 "  \"%s\": {\"queries_per_sec\": %.1f, \"p50_ms\": %.4f, "
                 "\"p95_ms\": %.4f, \"p99_ms\": %.4f%s}%s\n",
                 name, stats->queries_per_sec, stats->p50_ms, stats->p95_ms, stats->p99_ms,
                 extra, trailing_comma ? "," : "");
  } else {
    std::fprintf(f, "  \"%s\": null%s\n", name, trailing_comma ? "," : "");
  }
}

int emit_json(const std::string& path, const Workload& w) {
  const std::size_t hardware_threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());

  // Facade stanza (always measured) — fresh state; its compaction
  // counters and debt feed the `compaction` row.
  const SerialRun facade = run_facade(w);

  // Facade-concurrent stanza — submitters through the coalescing seat vs
  // a churning mutator thread; null below 4 hardware threads.
  double facade_concurrent_hit_rate = 0.0;
  std::uint64_t facade_concurrent_batches = 0;
  const std::optional<LatencyStats> facade_concurrent = run_facade_concurrent(
      w, hardware_threads, &facade_concurrent_hit_rate, &facade_concurrent_batches);
  if (!facade_concurrent.has_value()) {
    std::printf("facade_concurrent stanza skipped: %zu hardware thread(s) < 4\n",
                hardware_threads);
  }

  // Degraded stanza — the facade over four machines with one dead.
  double degraded_coverage = 1.0;
  const std::optional<LatencyStats> degraded = run_degraded(w, &degraded_coverage);

  // Obs-overhead stanza: the serial facade loop with the metrics registry
  // disabled (every instrument = one relaxed load + branch) vs enabled
  // with trace sampling off (the production configuration).  The
  // acceptance budget is <= 3% throughput cost; each arm builds a fresh
  // service so no cache/compaction state leaks between them.
  double obs_off_qps = 0.0;
  double obs_on_qps = 0.0;
  {
    // A/B arms need enough queries that each arm times tens-of-ms-plus;
    // the instruments under test cost nanoseconds, so a short arm measures
    // scheduler jitter, not overhead.
    Workload ow = w;
    ow.queries = std::max<std::size_t>(ow.queries, 2000);
    // Discarded warm-up arm: page cache, allocator arenas and branch
    // predictors settle here, so neither measured arm gets the cold start.
    obs::registry().set_enabled(false);
    (void)run_facade(ow);
    // Alternating best-of-3 per arm: run-to-run scheduler noise on shared
    // boxes dwarfs the ~3% budget this stanza polices, and the max of three
    // interleaved reps is the least-perturbed sample of each arm.
    for (int rep = 0; rep < 3; ++rep) {
      obs::registry().set_enabled(false);
      obs_off_qps = std::max(obs_off_qps, run_facade(ow).latency.queries_per_sec);
      obs::registry().set_enabled(true);
      obs_on_qps = std::max(obs_on_qps, run_facade(ow).latency.queries_per_sec);
    }
  }
  const double obs_overhead =
      obs_off_qps > 0.0 ? 1.0 - obs_on_qps / obs_off_qps : 0.0;

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"serve\",\n");
  std::fprintf(f,
               "  \"workload\": {\"points\": %zu, \"dim\": %zu, \"ell\": %zu, "
               "\"queries\": %zu, \"churn_every\": %zu, \"query_pool\": 64, "
               "\"metric\": \"squared-euclidean\", \"threads\": %zu, \"simd_isa\": \"%s\"},\n",
               w.n, w.dim, w.ell, w.queries, w.churn_every, hardware_threads,
               simd::isa_name(simd::active_isa()));
  {
    char extra[160];
    std::snprintf(extra, sizeof extra,
                  ", \"cache_hit_rate\": %.3f, \"machines\": 1, \"debt_after\": %" PRIu64,
                  facade.hit_rate, facade.debt_after);
    write_latency(f, "facade", facade.latency, extra, true);
  }
  {
    char extra[160];
    std::snprintf(extra, sizeof extra,
                  ", \"cache_hit_rate\": %.3f, \"seat_batches\": %" PRIu64
                  ", \"submitters\": 4, \"machines\": 1",
                  facade_concurrent_hit_rate, facade_concurrent_batches);
    write_latency(f, "facade_concurrent", facade_concurrent, extra, true);
  }
  {
    char extra[160];
    std::snprintf(extra, sizeof extra, ", \"machines\": 4, \"dead\": 1, \"coverage\": %.3f",
                  degraded_coverage);
    write_latency(f, "degraded", degraded, extra, true);
  }
  std::fprintf(f,
               "  \"obs_overhead\": {\"metrics_on_qps\": %.1f, \"metrics_off_qps\": %.1f, "
               "\"overhead_fraction\": %.4f, \"trace_sampling\": 0, \"budget_fraction\": "
               "0.03},\n",
               obs_on_qps, obs_off_qps, obs_overhead);
  std::fprintf(f,
               "  \"compaction\": {\"installed\": %" PRIu64 ", \"debt_before\": %" PRIu64
               ", \"debt_after\": %" PRIu64 "}\n}\n",
               facade.installs, facade.debt_before, facade.debt_after);
  std::fclose(f);

  std::printf("wrote %s (facade %.0f q/s, p50 %.3f ms, p95 %.3f ms, p99 %.3f ms, "
              "cache hit %.1f%%; ",
              path.c_str(), facade.latency.queries_per_sec, facade.latency.p50_ms,
              facade.latency.p95_ms, facade.latency.p99_ms, 100.0 * facade.hit_rate);
  if (facade_concurrent.has_value()) {
    std::printf("facade_concurrent %.0f q/s p99 %.3f ms; ",
                facade_concurrent->queries_per_sec, facade_concurrent->p99_ms);
  } else {
    std::printf("facade_concurrent skipped @%zu threads; ", hardware_threads);
  }
  if (degraded.has_value()) {
    std::printf("degraded %.0f q/s at coverage %.2f; ", degraded->queries_per_sec,
                degraded_coverage);
  }
  std::printf("obs overhead %.1f%% (on %.0f vs off %.0f q/s); ", 100.0 * obs_overhead,
              obs_on_qps, obs_off_qps);
  std::printf("compaction %" PRIu64 " installed, debt %" PRIu64 " -> %" PRIu64 ")\n",
              facade.installs, facade.debt_before, facade.debt_after);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  cli.add_flag("json", "write BENCH_serve.json to this path (empty = print only)", "");
  cli.add_flag("n", "resident points", "100000");
  cli.add_flag("dim", "point dimensionality", "8");
  cli.add_flag("ell", "neighbors per query", "64");
  cli.add_flag("queries", "measured queries per stanza", "2000");
  cli.add_flag("churn-every", "one insert+delete per this many queries (0 = frozen)", "4");
  cli.add_flag("seed", "experiment seed", "3");
  if (!cli.parse(argc, argv)) return 0;

  Workload w;
  w.n = cli.get_uint("n");
  w.dim = cli.get_uint("dim");
  w.ell = cli.get_uint("ell");
  w.queries = cli.get_uint("queries");
  w.churn_every = cli.get_uint("churn-every");
  w.seed = cli.get_uint("seed");

  const std::string json_path = cli.get("json");
  if (!json_path.empty()) return emit_json(json_path, w);

  // No JSON target: run the serial facade stanza and print it.
  const SerialRun facade = run_facade(w);
  std::printf("facade: %.0f queries/sec, p50 %.3f ms, p95 %.3f ms, p99 %.3f ms\n",
              facade.latency.queries_per_sec, facade.latency.p50_ms, facade.latency.p95_ms,
              facade.latency.p99_ms);
  std::printf("cache hit rate %.3f; debt %" PRIu64 " -> %" PRIu64 "\n", facade.hit_rate,
              facade.debt_before, facade.debt_after);
  return 0;
}
