// serve_loop — live traffic against a mutating resident dataset, through
// the front door.
//
// The paper's serving scenario (§1.1) with the part batch reproductions
// skip: points arrive and expire *while* queries stream in.  This example
// runs a live-mode KnnService — k SegmentStores absorbing churn behind
// epoch-numbered snapshots, the facade's epoch-keyed result cache in
// front, and the full distributed protocol (fused snapshot scoring +
// Algorithm 2) answering every query — and prints the health counters an
// operator would watch: epoch, live points, segments, compaction debt,
// cache hit rate.  Inserts, deletes, compaction and queries all go through
// the same service handle a frozen deployment would use.
//
//   ./serve_loop [--n=50000] [--dim=8] [--ell=16] [--stores=4] [--ticks=10]
//                [--churn=500] [--queries=200] [--seed=7] [--kill=-1]
//                [--metrics=0] [--metrics-out=PATH] [--trace=0]
//
// With --kill=T (a tick index), the service is built fault-tolerant and
// one store is killed at the start of tick T: the loop keeps serving
// degraded-but-exact answers (the coverage column shows how many stores
// answered), churn keeps flowing, and at the start of the next tick the
// survivors elect a coordinator and re-home the dead store's points —
// after which answers are byte-identical to a never-failed service.
//
// With --metrics=1, each tick also prints the p95 query latency out of
// the process-wide obs registry, and the run exits with the full
// Prometheus text exposition (to stdout, or to --metrics-out=PATH).
// With --trace=N, every query is traced and the N slowest stage ladders
// print at exit (seat wait, snapshot acquire, scoring, selection, merge).

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "core/knn_service.hpp"
#include "data/generators.hpp"
#include "obs/metrics.hpp"
#include "support/cli.hpp"

int main(int argc, char** argv) {
  dknn::Cli cli;
  cli.add_flag("n", "initial resident points", "50000");
  cli.add_flag("dim", "point dimensionality", "8");
  cli.add_flag("ell", "neighbors per query", "16");
  cli.add_flag("stores", "live stores (simulated machines)", "4");
  cli.add_flag("ticks", "serving-loop ticks", "10");
  cli.add_flag("churn", "inserts and deletes per tick", "500");
  cli.add_flag("queries", "queries per tick", "200");
  cli.add_flag("seed", "experiment seed", "7");
  cli.add_flag("kill", "tick at which one store fails (-1 = never)", "-1");
  cli.add_flag("metrics", "print a p95-latency tick column + Prometheus dump on exit", "0");
  cli.add_flag("metrics-out", "write the exit Prometheus dump to this path ('' = stdout)", "");
  cli.add_flag("trace", "trace every query, print the N slowest at exit (0 = off)", "0");
  if (!cli.parse(argc, argv)) return 0;

  const std::size_t n = cli.get_uint("n");
  const std::size_t dim = cli.get_uint("dim");
  const std::uint64_t ell = cli.get_uint("ell");
  const auto stores = static_cast<std::uint32_t>(cli.get_uint("stores"));
  const std::size_t ticks = cli.get_uint("ticks");
  const std::size_t churn = cli.get_uint("churn");
  const std::size_t queries_per_tick = cli.get_uint("queries");
  const std::int64_t kill_tick = cli.get_int("kill");
  const bool metrics = cli.get_bool("metrics");
  const std::string metrics_out = cli.get("metrics-out");
  const std::size_t trace_slowest = cli.get_uint("trace");

  dknn::Rng rng(cli.get_uint("seed"));
  dknn::EngineConfig engine;
  engine.seed = cli.get_uint("seed") + 1;

  // Live-mode service: the builder shards the warm dataset over the
  // stores, seals it, and wires up the epoch-keyed result cache.
  std::printf("loading %zu points (d = %zu) into %u live stores...\n", n, dim, stores);
  dknn::KnnServiceBuilder builder;
  builder.machines(stores)
      .ell(ell)
      .live()
      .seal_threshold(2048)
      .policy(dknn::ScoringPolicy::Auto)
      .compaction(dknn::CompactionConfig{.max_dead_fraction = 0.2,
                                         .min_segment_points = 1024})
      .cache_capacity(4096)
      .seed(cli.get_uint("seed"))
      .engine(engine)
      .dataset(dknn::uniform_points(n, dim, 100.0, rng));
  if (kill_tick >= 0) builder.fault_tolerant();
  if (trace_slowest > 0) builder.trace(1, 4096);  // trace every query
  dknn::KnnService service = builder.build();

  // The builder assigned random unique ids; live_ids() hands them back so
  // churn can expire *resident* points too, and contains() lets us mint
  // collision-free ids for arrivals.
  std::vector<dknn::PointId> live = service.live_ids();
  dknn::PointId next_id = 1;

  // Query pool with repeats — live traffic is skewed, which is what the
  // epoch-keyed cache exploits between mutations.
  const auto query_pool = dknn::uniform_points(64, dim, 100.0, rng);

  std::printf("%-5s %-10s %-8s %-9s %-7s %-10s %-9s %s%s\n", "tick", "epoch", "live", "segments",
              "debt", "cache-hit%", "coverage", metrics ? "p95-lat(µs) " : "",
              "sample answer (id@dist²)");
  for (std::size_t tick = 0; tick < ticks; ++tick) {
    // Fault schedule: one store dies at --kill, survivors recover it at the
    // start of the next tick (election + re-homing through the live path).
    if (kill_tick >= 0 && tick == static_cast<std::size_t>(kill_tick)) {
      std::printf("-- killing store %u --\n", stores - 1);
      service.kill_machine(stores - 1);
    }
    if (kill_tick >= 0 && tick == static_cast<std::size_t>(kill_tick) + 1) {
      const dknn::RecoveryReport report = service.recover_machine(stores - 1);
      std::printf("-- recovered store %zu: coordinator %u re-homed %zu points --\n",
                  report.machine, static_cast<unsigned>(report.election.coordinator),
                  report.points_recovered);
    }
    // Churn: new points arrive, old ones expire — all through the facade.
    for (std::size_t i = 0; i < churn; ++i) {
      while (service.contains(next_id)) ++next_id;
      service.insert(dknn::uniform_points(1, dim, 100.0, rng)[0], next_id);
      live.push_back(next_id++);
      const std::size_t victim = rng.below(live.size());
      (void)service.erase(live[victim]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    // Maintenance tick: maybe_compact() schedules at most one background
    // round per indebted store on the service pool (or runs it inline on a
    // serial config) and returns immediately — the serving loop never
    // blocks behind merge work.  compact_now() stays available when an
    // operator wants the debt paid off synchronously.
    const std::size_t rounds = service.maybe_compact();
    if (rounds > 0) std::printf("-- scheduled %zu compaction round(s) --\n", rounds);

    // Traffic: queries drawn from the skewed pool.
    dknn::QueryResult last;
    for (std::size_t q = 0; q < queries_per_tick; ++q) {
      last = service.query(query_pool[rng.below(query_pool.size())]);
    }
    const auto stats = service.stats();
    const double hit_rate =
        stats.queries == 0
            ? 0.0
            : 100.0 * static_cast<double>(stats.cache_hits) / static_cast<double>(stats.queries);
    char coverage[16];
    std::snprintf(coverage, sizeof coverage, "%u/%u", last.coverage.answered(),
                  last.coverage.total);
    char p95_col[16] = "";
    if (metrics) {
      // Running p95 over the whole process (the registry is cumulative);
      // good enough for an operator's tick column.
      const dknn::obs::MetricsSnapshot snap = dknn::obs::registry().snapshot();
      const auto* hist = snap.find_histogram("dknn_service_query_latency_ns");
      const double p95_us =
          hist != nullptr ? static_cast<double>(hist->quantile(0.95)) / 1000.0 : 0.0;
      std::snprintf(p95_col, sizeof p95_col, "%-11.0f ", p95_us);
    }
    std::printf("%-5zu %-10" PRIu64 " %-8zu %-9zu %-7" PRIu64 " %-10.1f %-9s %s%" PRIu64
                "@%.1f\n",
                tick, service.snapshot_epoch(), service.total_points(),
                service.segment_count(), service.compaction_debt(), hit_rate, coverage, p95_col,
                last.keys.empty() ? 0 : last.keys[0].id,
                last.keys.empty() ? 0.0 : dknn::decode_distance(last.keys[0].rank));
  }
  (void)service.compact_now();

  const auto stats = service.stats();
  std::printf("\nserved %" PRIu64 " queries in %" PRIu64 " protocol runs "
              "(every answer exact for its epoch)\n",
              stats.queries, stats.batches);
  std::printf("cache: %" PRIu64 " hits / %" PRIu64 " misses / %" PRIu64 " flushes\n",
              stats.cache_hits, stats.cache_misses, stats.cache_flushes);
  std::printf("final state: epoch %" PRIu64 ", %zu live points, %zu segments, debt %" PRIu64
              " rows\n",
              service.snapshot_epoch(), service.total_points(), service.segment_count(),
              service.compaction_debt());

  if (trace_slowest > 0) {
    std::vector<dknn::obs::QueryTrace> traces = service.recent_traces();
    std::sort(traces.begin(), traces.end(),
              [](const auto& a, const auto& b) { return a.total_ns > b.total_ns; });
    if (traces.size() > trace_slowest) traces.resize(trace_slowest);
    std::printf("\n%zu slowest traces (of %zu retained):\n", traces.size(),
                service.recent_traces().size());
    for (const dknn::obs::QueryTrace& trace : traces) {
      std::printf("  query #%" PRIu64 "  total %.1f µs\n", trace.id,
                  static_cast<double>(trace.total_ns) / 1000.0);
      for (const dknn::obs::TraceSpan& span : trace.spans) {
        std::printf("    %-18s +%8.1f µs  %8.1f µs  detail=%" PRIu64 "\n", span.name,
                    static_cast<double>(span.start_ns - trace.start_ns) / 1000.0,
                    static_cast<double>(span.dur_ns) / 1000.0, span.detail);
      }
    }
  }

  if (metrics) {
    const std::string text = service.metrics_text();
    if (metrics_out.empty()) {
      std::printf("\n%s", text.c_str());
    } else {
      std::FILE* out = std::fopen(metrics_out.c_str(), "w");
      if (out == nullptr) {
        std::fprintf(stderr, "serve_loop: cannot write %s\n", metrics_out.c_str());
        return 1;
      }
      std::fputs(text.c_str(), out);
      std::fclose(out);
      std::printf("\nwrote Prometheus exposition to %s\n", metrics_out.c_str());
    }
  }
  return 0;
}
