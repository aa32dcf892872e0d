/// \file static_workloads.cpp
/// \brief protocol_k64 and scan_batch: one closed-loop client against a
///        static KnnService, checked against a brute-force oracle.

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "core/knn_service.hpp"
#include "data/generators.hpp"
#include "data/ids.hpp"
#include "sim/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using dknn::Key;
using dknn::PointD;

struct StaticSpec {
  std::uint32_t machines;
  std::size_t points;
  std::size_t dim;
  std::uint64_t ell;
  bool mixture;              ///< 8-component Gaussian mixture, else uniform box
  std::size_t block;         ///< 1 = query(); larger = query_batch blocks
  std::size_t threads;       ///< scoring pool threads (1 = serial, no pool)
  std::size_t query_pool;    ///< 0 = a fresh query per call, else a fixed pool
  std::size_t setup_repeats; ///< builds timed for setup_s (median)
  /// Queries (in stream order) the exact counts — digest, protocol rows,
  /// score.points_per_query — cover, so they repeat exactly for a seed.
  std::size_t exact_prefix;
  TailPercentile tail;       ///< ≥ 10 samples beyond it in a normal run
};

// 65,536 uniform d=8 points on 64 machines: 1,024 per machine is below the
// kd cutoff, so scoring is brute and the protocol dominates.
constexpr StaticSpec kProtocolK64{64, 65536, 8, 64, false, 1, 1, 0, 31, 512, kP99};
// 400k mixture points at d=32 (never tree-routed above d=24): the fused
// kernels, the driver tiling and the pool carry the time.
constexpr StaticSpec kScanBatch{4, 400000, 32, 64, true, 64, 4, 1024, 7, 1024, kP90};

constexpr double kBoxRange = 100.0;

/// The workload's data and its deterministic query stream.  Call i of a
/// run asks the same queries whether the facade or the traced replay
/// serves it, so one oracle answer per query id checks both.
class Workload {
 public:
  Workload(const StaticSpec& spec, std::uint64_t seed)
      : spec_(spec), query_rng_(dknn::Rng(seed).split(3)), pick_rng_(dknn::Rng(seed).split(4)) {
    dknn::Rng data_rng = dknn::Rng(seed).split(1);
    dknn::Rng id_rng = dknn::Rng(seed).split(2);
    if (spec.mixture) {
      mixture_.emplace(dknn::ClusterSpec{.dim = spec.dim, .clusters = 8,
                                         .center_box = kBoxRange, .spread = 2.0},
                       data_rng);
      for (auto& lp : mixture_->sample(spec.points, data_rng)) points_.push_back(std::move(lp.x));
    } else {
      points_ = dknn::uniform_points(spec.points, spec.dim, kBoxRange, data_rng);
    }
    ids_ = dknn::assign_random_ids(spec.points, id_rng);
    for (std::size_t i = 0; i < spec.query_pool; ++i) queries_.push_back(fresh_query());
  }

  [[nodiscard]] const std::vector<PointD>& points() const { return points_; }
  [[nodiscard]] const std::vector<dknn::PointId>& ids() const { return ids_; }
  [[nodiscard]] const PointD& query(std::uint32_t id) const { return queries_[id]; }
  [[nodiscard]] std::size_t query_count() const { return queries_.size(); }

  /// Rewinds the stream to call 0.
  void rewind() { position_ = 0; }

  /// The next call's query ids.
  std::vector<std::uint32_t> next_call() {
    std::vector<std::uint32_t> ids(spec_.block);
    for (std::uint32_t& id : ids) {
      if (position_ == stream_.size()) {
        if (spec_.query_pool == 0) {
          stream_.push_back(static_cast<std::uint32_t>(queries_.size()));
          queries_.push_back(fresh_query());
        } else {
          stream_.push_back(static_cast<std::uint32_t>(pick_rng_.below(spec_.query_pool)));
        }
      }
      id = stream_[position_++];
    }
    return ids;
  }

  [[nodiscard]] std::vector<PointD> gather(const std::vector<std::uint32_t>& ids) const {
    std::vector<PointD> out;
    out.reserve(ids.size());
    for (const std::uint32_t id : ids) out.push_back(queries_[id]);
    return out;
  }

 private:
  PointD fresh_query() {
    if (mixture_) return std::move(mixture_->sample(1, query_rng_).front().x);
    return std::move(dknn::uniform_points(1, spec_.dim, kBoxRange, query_rng_).front());
  }

  StaticSpec spec_;
  std::optional<dknn::GaussianMixture> mixture_;
  std::vector<PointD> points_;
  std::vector<dknn::PointId> ids_;
  dknn::Rng query_rng_;
  dknn::Rng pick_rng_;
  std::vector<PointD> queries_;         ///< pool, or every fresh query so far
  std::vector<std::uint32_t> stream_;   ///< query id of each stream position
  std::size_t position_ = 0;
};

struct Answer {
  std::uint32_t query = 0;
  bool complete = true;
  std::uint64_t hash = 0;  ///< answer_hash of the returned keys
};

/// The first `exact_prefix` queries' answer digest and protocol costs.
struct ExactCounts {
  std::size_t limit = 0;
  std::size_t queries = 0;
  std::uint64_t digest = kDigestSeed;
  double rounds = 0.0;
  double messages = 0.0;
  double bits = 0.0;

  [[nodiscard]] bool open() const { return queries < limit; }
};

struct FacadeRun {
  std::vector<double> latency_ms;  ///< per timed call
  std::vector<Completion> done;    ///< per timed call
  std::uint64_t timed_queries = 0;
  double window_s = 0.0;
  double call_ms_total = 0.0;
  std::vector<Answer> answers;
  std::uint64_t thrown = 0;
  ExactCounts exact;
};

dknn::KnnService build_service(const StaticSpec& spec, std::vector<dknn::VectorShard> shards,
                               dknn::ThreadPool* pool) {
  dknn::BatchScoringConfig scoring;
  scoring.threads = 1;
  scoring.pool = pool;
  return dknn::KnnServiceBuilder()
      .ell(spec.ell)
      .algo(dknn::KnnAlgo::DistKnn)
      .policy(dknn::ScoringPolicy::Auto)
      .cache_capacity(0)
      .scoring(scoring)
      .dataset_sharded(std::move(shards))
      .build();
}

double warmup_seconds(double seconds) { return std::min(1.0, seconds / 4.0); }

/// Closed loop through the facade: warm up, then time calls for `seconds`.
FacadeRun drive_facade(dknn::KnnService& service, const StaticSpec& spec, Workload& work,
                       double seconds, bool inject_wrong) {
  FacadeRun run;
  run.exact.limit = spec.exact_prefix;
  work.rewind();
  const Clock::time_point window_start =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(warmup_seconds(seconds)));
  const Clock::time_point window_end =
      window_start +
      std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  Clock::time_point last_end = window_start;
  for (;;) {
    const Clock::time_point start = Clock::now();
    if (start >= window_end) break;
    const std::vector<std::uint32_t> ids = work.next_call();
    std::vector<std::vector<Key>> keys(ids.size());
    std::vector<char> complete(ids.size(), 1);
    try {
      if (spec.block == 1) {
        dknn::QueryResult r = service.query(work.query(ids[0]));
        keys[0] = std::move(r.keys);
        complete[0] = r.coverage.complete() ? 1 : 0;
        if (run.exact.open()) {
          run.exact.rounds += static_cast<double>(r.report.rounds);
          run.exact.messages += static_cast<double>(r.report.traffic.messages_sent());
          run.exact.bits += static_cast<double>(r.report.traffic.bits_sent());
        }
      } else {
        const std::vector<PointD> block = work.gather(ids);
        dknn::BatchQueryResult r = service.query_batch(block);
        for (std::size_t i = 0; i < ids.size(); ++i) {
          keys[i] = std::move(r.per_query[i].keys);
          complete[i] = r.per_query[i].coverage.complete() ? 1 : 0;
          if (run.exact.open()) {
            run.exact.rounds += static_cast<double>(r.per_query[i].report.rounds);
          }
        }
        if (run.exact.open()) {
          run.exact.messages += static_cast<double>(r.report.traffic.messages_sent());
          run.exact.bits += static_cast<double>(r.report.traffic.bits_sent());
        }
      }
    } catch (const std::exception& e) {
      ++run.thrown;
      info("error", std::string("query threw: ") + e.what());
      continue;
    }
    const Clock::time_point end = Clock::now();
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (inject_wrong && run.answers.size() == kInjectedAnswer && !keys[i].empty()) {
        keys[i].front().id ^= 1;
      }
      if (run.exact.open()) {
        fold_digest(run.exact.digest, keys[i]);
        ++run.exact.queries;
      }
      run.answers.push_back(Answer{ids[i], complete[i] != 0, answer_hash(keys[i])});
    }
    if (start >= window_start) {
      const double ms = seconds_between(start, end) * 1e3;
      run.latency_ms.push_back(ms);
      run.done.push_back(Completion{seconds_between(window_start, end),
                                    static_cast<std::uint32_t>(ids.size())});
      run.call_ms_total += ms;
      run.timed_queries += ids.size();
      last_end = end;
    }
  }
  run.window_s = seconds_between(window_start, last_end);
  return run;
}

/// Checks every answer against the brute-force oracle; returns mismatches.
std::uint64_t check_answers(const StaticSpec& spec, const Workload& work,
                            const std::vector<const std::vector<Answer>*>& runs) {
  std::vector<char> needed(work.query_count(), 0);
  for (const auto* answers : runs) {
    for (const Answer& a : *answers) needed[a.query] = 1;
  }
  std::vector<std::uint32_t> ids;
  for (std::uint32_t id = 0; id < needed.size(); ++id) {
    if (needed[id] != 0) ids.push_back(id);
  }
  const ColumnSet oracle(work.points(), work.ids(), spec.dim);
  std::vector<std::uint64_t> expected(work.query_count(), 0);
  parallel_for(ids.size(), check_threads(), [&](std::size_t i) {
    expected[ids[i]] = answer_hash(oracle.smallest(work.query(ids[i]), spec.ell));
  });
  std::uint64_t failed = 0;
  for (const auto* answers : runs) {
    for (const Answer& a : *answers) {
      if (!a.complete || a.hash == 0 || a.hash != expected[a.query]) ++failed;
    }
  }
  return failed;
}

struct ReplayRun {
  SpanLog log{0};
  SelectTally select;
  std::vector<Answer> answers;
  std::uint64_t queries = 0;
  double points = 0.0;         ///< rows the kernels scanned
  std::uint64_t prefix_queries = 0;
  double prefix_points = 0.0;  ///< rows scanned over the exact prefix
  double shard_queries = 0.0;
  double tree_queries = 0.0;
};

/// Rows one scoring pass over `indexes` scans for `queries` queries, given
/// the kd traversals' counters since the last reset.
double rows_scanned(const std::vector<dknn::ShardIndex>& indexes, std::uint64_t queries) {
  double rows = 0.0;
  for (const dknn::ShardIndex& index : indexes) {
    if (!index.has_tree()) rows += static_cast<double>(index.flat.size() * queries);
  }
  return rows + static_cast<double>(dknn::tree_stats(indexes).points_scored);
}

/// The traced run: the same call stream, composed from the layers' public
/// functions with a span around each call into a layer.
ReplayRun replay_traced(const StaticSpec& spec, Workload& work,
                        const std::vector<dknn::ShardIndex>& indexes,
                        const dknn::BatchScoringConfig& scoring, double seconds) {
  ReplayRun run;
  work.rewind();
  dknn::reset_tree_stats(indexes);
  const Clock::time_point end =
      Clock::now() +
      std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  while (Clock::now() < end) {
    run.log.begin_request();
    const std::uint64_t call_start = now_ns();
    const std::vector<std::uint32_t> ids = work.next_call();
    const std::vector<PointD> block = work.gather(ids);
    std::vector<std::vector<std::vector<Key>>> scored;
    {
      ScopedSpan span(run.log, "score_vector_shards_batch", Layer::Score);
      scored = dknn::score_vector_shards_batch(indexes, block, spec.ell,
                                               dknn::MetricKind::SquaredEuclidean, scoring);
    }
    dknn::BatchRunResult selected;
    {
      ScopedSpan span(run.log, "run_knn_batch", Layer::Select);
      selected = dknn::run_knn_batch(scored, spec.ell, dknn::KnnAlgo::DistKnn,
                                     dknn::EngineConfig{}, dknn::KnnConfig{});
    }
    run.select.add(selected);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      run.answers.push_back(Answer{ids[i], true, answer_hash(selected.per_query[i].keys)});
    }
    run.log.record("call", Layer::Call, call_start, now_ns());
    run.queries += ids.size();
    if (run.prefix_queries < spec.exact_prefix) {
      run.prefix_queries = run.queries;
      run.prefix_points = rows_scanned(indexes, run.queries);
    }
  }
  run.points = rows_scanned(indexes, run.queries);
  run.shard_queries = static_cast<double>(run.queries * indexes.size());
  run.tree_queries = static_cast<double>(dknn::tree_stats(indexes).queries);
  return run;
}

/// Seconds to score `batches` serially divided by seconds on `pool`.
double pool_speedup(const StaticSpec& spec, Workload& work,
                    const std::vector<dknn::ShardIndex>& indexes, dknn::ThreadPool& pool,
                    std::size_t calls) {
  work.rewind();
  std::vector<std::vector<PointD>> batches;
  for (std::size_t c = 0; c < calls; ++c) batches.push_back(work.gather(work.next_call()));
  const auto time_all = [&](const dknn::BatchScoringConfig& config) {
    const Clock::time_point start = Clock::now();
    for (const auto& batch : batches) {
      const auto scored = dknn::score_vector_shards_batch(
          indexes, batch, spec.ell, dknn::MetricKind::SquaredEuclidean, config);
      if (scored.size() != batch.size()) throw std::runtime_error("scoring lost queries");
    }
    return seconds_between(start, Clock::now());
  };
  dknn::BatchScoringConfig serial;
  serial.threads = 1;
  dknn::BatchScoringConfig pooled;
  pooled.pool = &pool;
  // Best of two alternating passes each, so neither side pays the warm-up.
  double serial_s = time_all(serial);
  double pooled_s = time_all(pooled);
  serial_s = std::min(serial_s, time_all(serial));
  pooled_s = std::min(pooled_s, time_all(pooled));
  return pooled_s > 0.0 ? serial_s / pooled_s : 0.0;
}

Sheet run_static(const StaticSpec& spec, const Options& options) {
  Workload work(spec, options.seed);
  // One pool serves the facade and the traced calls (BatchScoringConfig::pool).
  std::optional<dknn::ThreadPool> pool;
  if (spec.threads > 1) pool.emplace(spec.threads);
  dknn::ThreadPool* pool_ptr = pool ? &*pool : nullptr;

  // Set-up: generated points -> sharded -> built service, median of repeats.
  dknn::KnnService service;
  const double setup_s =
      median_after_warmup(options.trace ? 1 : spec.setup_repeats, [&] {
        service = dknn::KnnService();
        const Clock::time_point start = Clock::now();
        service = build_service(
            spec, shard_round_robin(work.points(), work.ids(), spec.machines), pool_ptr);
        return seconds_between(start, Clock::now());
      });

  const double facade_seconds = options.trace ? options.seconds / 2.0 : options.seconds;
  const dknn::ServiceStats stats_before = service.stats();
  const auto seat_before = histogram_buckets(service.metrics_json(), "dknn_service_seat_wait_ns");
  FacadeRun facade = drive_facade(service, spec, work, facade_seconds, options.inject_wrong_answer);
  const dknn::ServiceStats stats_after = service.stats();
  const auto seat_after = histogram_buckets(service.metrics_json(), "dknn_service_seat_wait_ns");
  const double rss_mb = peak_rss_mb();

  const double exact_n = static_cast<double>(std::max<std::size_t>(facade.exact.queries, 1));
  const LatencySummary latency = summarize_latency(facade.latency_ms, spec.tail);
  info("calls", std::to_string(latency.count) + " timed calls, " +
                    std::to_string(facade.timed_queries) + " queries in " +
                    fmt(facade.window_s) + " s; tail = " + latency.tail_label + " with " +
                    std::to_string(latency.beyond) + " samples beyond it; p90=" + fmt(latency.p90) +
                    " p99=" + fmt(latency.p99) + " p999=" + fmt(latency.p999));
  info("per_second", per_second(facade.done, facade.window_s));
  info("determinism", "first " + std::to_string(facade.exact.queries) +
                          " queries: digest=" + hex(facade.exact.digest) +
                          " rounds_per_query=" + fmt(facade.exact.rounds / exact_n) +
                          " messages_per_query=" + fmt(facade.exact.messages / exact_n) +
                          " bits_per_query=" + fmt(facade.exact.bits / exact_n));

  Sheet sheet;
  std::vector<const std::vector<Answer>*> checked{&facade.answers};
  if (!options.trace) {
    EndToEnd e2e;
    e2e.qps = facade.window_s > 0.0 ? static_cast<double>(facade.timed_queries) / facade.window_s
                                    : 0.0;
    e2e.latency_p50_ms = latency.p50;
    e2e.latency_tail_ms = latency.tail;
    e2e.setup_s = setup_s;
    e2e.peak_rss_mb = rss_mb;
    e2e.rounds_per_query = facade.exact.rounds / exact_n;
    e2e.messages_per_query = facade.exact.messages / exact_n;
    e2e.bits_per_query = facade.exact.bits / exact_n;
    e2e.emit(sheet);
    sheet.failed = check_answers(spec, work, checked);
    sheet.attempted = facade.answers.size() + facade.thrown;
    sheet.failed += facade.thrown;
    return sheet;
  }

  // Traced run: the same stream through the layers' public functions.
  service = dknn::KnnService();
  const std::vector<dknn::VectorShard> shards =
      shard_round_robin(work.points(), work.ids(), spec.machines);
  SpanLog setup_log(0);
  std::vector<dknn::ShardIndex> indexes;
  {
    ScopedSpan span(setup_log, "make_shard_indexes", Layer::Core);
    indexes = dknn::make_shard_indexes(shards, dknn::ScoringPolicy::Auto);
  }
  info("make_shard_indexes",
       fmt(static_cast<double>(setup_log.spans().front().duration_ns()) / 1e6) + " ms");
  dknn::BatchScoringConfig scoring;
  scoring.threads = 1;
  scoring.pool = pool_ptr;
  ReplayRun replay = replay_traced(spec, work, indexes, scoring, options.seconds / 2.0);
  checked.push_back(&replay.answers);

  PerLayer layers;
  const LayerTimes times = layer_times({&replay.log});
  fill_layer_rows(layers, times, replay.select, spec.ell, spec.dim, spec.points, replay.points,
                  replay.shard_queries, replay.tree_queries);
  std::optional<dknn::ThreadPool> probe_pool;
  if (pool_ptr == nullptr) probe_pool.emplace(4);
  layers.pool_speedup_vs_serial =
      pool_speedup(spec, work, indexes, pool_ptr != nullptr ? *pool_ptr : *probe_pool,
                   spec.block == 1 ? 64 : 2);

  const double hits = static_cast<double>(stats_after.cache_hits - stats_before.cache_hits);
  const double misses = static_cast<double>(stats_after.cache_misses - stats_before.cache_misses);
  const double queries = static_cast<double>(stats_after.queries - stats_before.queries);
  const double batches = static_cast<double>(stats_after.batches - stats_before.batches);
  layers.core_cache_hit_rate = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  layers.core_seat_batch_mean = batches > 0 ? queries / batches : 0.0;
  layers.core_seat_wait_p99_ms = histogram_delta_quantile(seat_before, seat_after, 0.99) / 1e6;

  const double untraced_per_query =
      facade.timed_queries > 0
          ? facade.call_ms_total / static_cast<double>(facade.timed_queries)
          : 0.0;
  const double traced_per_query =
      replay.queries > 0
          ? static_cast<double>(times.call_ns) / 1e6 / static_cast<double>(replay.queries)
          : 0.0;
  layers.trace_overhead =
      untraced_per_query > 0 ? traced_per_query / untraced_per_query - 1.0 : 0.0;
  info("traced", std::to_string(replay.queries) + " queries; " + fmt(traced_per_query) +
                     " ms/query traced vs " + fmt(untraced_per_query) + " ms/query untraced");
  info("determinism.score",
       "first " + std::to_string(replay.prefix_queries) + " queries: points_per_query=" +
           fmt(replay.prefix_queries > 0
                   ? replay.prefix_points / static_cast<double>(replay.prefix_queries)
                   : 0.0));
  layers.emit(sheet);
  if (!options.trace_out.empty()) write_chrome_trace(options.trace_out, {&setup_log, &replay.log});

  sheet.failed = check_answers(spec, work, checked);
  sheet.attempted = facade.answers.size() + replay.answers.size() + facade.thrown;
  sheet.failed += facade.thrown;
  return sheet;
}

}  // namespace

Sheet run_protocol_k64(const Options& options) { return run_static(kProtocolK64, options); }
Sheet run_scan_batch(const Options& options) { return run_static(kScanBatch, options); }

}  // namespace perfbench
