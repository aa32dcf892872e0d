/// \file live_churn.cpp
/// \brief live_churn: three closed-loop readers and one open-loop writer
///        against a live KnnService, checked per epoch against a
///        brute-force oracle; the traced run replays the same mix against
///        a rig of SegmentStores + EpochResultCache + Compactors.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "core/knn_service.hpp"
#include "data/generators.hpp"
#include "data/ids.hpp"
#include "serve/compactor.hpp"
#include "serve/result_cache.hpp"
#include "serve/segment_store.hpp"
#include "sim/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using dknn::Key;
using dknn::PointD;
using dknn::PointId;

constexpr std::uint32_t kMachines = 4;
constexpr std::size_t kPoints = 100000;  // 25k-point shards: kd path while clean
constexpr std::size_t kDim = 8;
constexpr std::uint64_t kEll = 32;
constexpr std::size_t kCacheEntries = 4096;
constexpr std::size_t kReaders = 3;
// Scoring runs serially in the seat leader (no service pool), so the four
// client threads are the workload's only busy threads and compaction runs
// inline in maybe_compact() on the writer.
constexpr std::size_t kServiceThreads = 1;
constexpr double kPairsPerSecond = 200.0;  // insert+erase pairs, open loop
constexpr std::uint64_t kCompactEvery = 64; // pairs between maybe_compact() calls
constexpr std::size_t kQueryPool = 1024;
constexpr double kZipfExponent = 1.1;
constexpr std::size_t kSetupRepeats = 15;
// p999 and p99 (about 70 and 700 samples beyond them in a 30 s run) each
// spread 45-65% across seeds on a 4-vCPU VM, moved by a few stalls per
// run; p90 is the highest percentile that holds still.
constexpr TailPercentile kTail = kP90;
constexpr double kBoxRange = 100.0;

dknn::CompactionConfig compaction_config() {
  dknn::CompactionConfig config;
  // Rewrite a 25k-row segment once 0.5% of it is tombstoned (about every
  // 2.5 s per store at this write rate), so compaction rounds run inside
  // every measurement window.
  config.max_dead_fraction = 0.005;
  return config;
}

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

double warmup_seconds(double seconds) { return std::min(1.0, seconds / 4.0); }

/// Zipf(s) ranks over [0, n): rank r drawn with weight 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = total;
    }
  }
  [[nodiscard]] std::uint32_t draw(dknn::Rng& rng) const {
    const double u = rng.uniform01() * cdf_.back();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::uint32_t>(std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

/// Everything the workload draws from its seed.  Rows [0, kPoints) of
/// `all_points` are the initial data set; the rest are the writer's
/// inserts, in order.
struct ChurnData {
  std::vector<PointD> all_points;
  std::vector<PointId> all_ids;
  std::vector<PointD> queries;
  std::uint64_t seed = 0;

  ChurnData(std::uint64_t seed_in, std::size_t max_inserts) : seed(seed_in) {
    dknn::Rng root(seed);
    dknn::Rng data_rng = root.split(1);
    dknn::Rng id_rng = root.split(2);
    dknn::Rng query_rng = root.split(3);
    dknn::Rng insert_rng = root.split(5);
    all_points = dknn::uniform_points(kPoints, kDim, kBoxRange, data_rng);
    for (auto& p : dknn::uniform_points(max_inserts, kDim, kBoxRange, insert_rng)) {
      all_points.push_back(std::move(p));
    }
    all_ids = dknn::assign_random_ids(all_points.size(), id_rng);
    queries = dknn::uniform_points(kQueryPool, kDim, kBoxRange, query_rng);
  }

  [[nodiscard]] std::vector<dknn::VectorShard> initial_shards() const {
    const std::vector<PointD> initial(all_points.begin(), all_points.begin() + kPoints);
    const std::vector<PointId> ids(all_ids.begin(), all_ids.begin() + kPoints);
    return shard_round_robin(initial, ids, kMachines);
  }
};

/// The writer's script: pair j inserts row kPoints + j and erases a live
/// row picked by a seeded stream.  Ops are numbered from 1; membership
/// after W ops is what a reader that saw W writes must answer over.
class WriteScript {
 public:
  explicit WriteScript(const ChurnData& data)
      : data_(data), victim_rng_(dknn::Rng(data.seed).split(6)) {
    live_.reserve(data.all_points.size());
    for (std::uint32_t row = 0; row < kPoints; ++row) live_.push_back(row);
    born_.assign(data.all_points.size(), 0);
    died_.assign(data.all_points.size(), kNever);
    for (std::size_t row = kPoints; row < data.all_points.size(); ++row) born_[row] = kNever;
  }

  static constexpr std::uint32_t kNever = ~std::uint32_t{0};

  [[nodiscard]] bool can_insert() const { return next_insert_ < data_.all_points.size(); }

  /// Row of the next insert, recorded as the next op.
  std::uint32_t take_insert() {
    const auto row = static_cast<std::uint32_t>(next_insert_++);
    born_[row] = ++ops_;
    live_.push_back(row);
    return row;
  }
  /// Row of the next erase victim, recorded as the next op.
  std::uint32_t take_erase() {
    const std::size_t pick = victim_rng_.below(live_.size());
    const std::uint32_t row = live_[pick];
    live_[pick] = live_.back();
    live_.pop_back();
    died_[row] = ++ops_;
    return row;
  }

  [[nodiscard]] bool alive(std::size_t row, std::uint32_t writes) const {
    return born_[row] <= writes && writes < died_[row];
  }

 private:
  const ChurnData& data_;
  dknn::Rng victim_rng_;
  std::vector<std::uint32_t> live_;
  std::vector<std::uint32_t> born_;
  std::vector<std::uint32_t> died_;
  std::size_t next_insert_ = kPoints;
  std::uint32_t ops_ = 0;
};

struct ReaderAnswer {
  std::uint32_t query = 0;
  std::uint64_t epoch = 0;   ///< facade: the answer's epoch
  std::uint32_t writes = 0;  ///< rig: writes applied at its snapshot
  bool complete = true;
  std::uint64_t hash = 0;  ///< answer_hash of the returned keys
};

/// Oracle check of every answer: the ℓ smallest keys over the rows alive
/// after `writes` ops.  Returns the number of wrong answers.
std::uint64_t check_answers(const ChurnData& data, const WriteScript& script,
                            const std::vector<ReaderAnswer>& answers) {
  const ColumnSet oracle(data.all_points, data.all_ids, kDim);
  // One oracle pass per distinct (query, writes) pair.
  std::vector<std::size_t> order(answers.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return std::pair(answers[a].query, answers[a].writes) <
           std::pair(answers[b].query, answers[b].writes);
  });
  std::vector<std::size_t> heads;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const ReaderAnswer& a = answers[order[i]];
    if (i == 0 || a.query != answers[order[i - 1]].query ||
        a.writes != answers[order[i - 1]].writes) {
      heads.push_back(i);
    }
  }
  std::atomic<std::uint64_t> failed{0};
  parallel_for(heads.size(), check_threads(), [&](std::size_t h) {
    const std::size_t begin = heads[h];
    const std::size_t end = h + 1 < heads.size() ? heads[h + 1] : order.size();
    const ReaderAnswer& head = answers[order[begin]];
    const std::uint32_t writes = head.writes;
    const std::uint64_t expected = answer_hash(oracle.smallest(
        data.queries[head.query], kEll,
        [&](std::size_t row) { return script.alive(row, writes); }));
    for (std::size_t i = begin; i < end; ++i) {
      const ReaderAnswer& a = answers[order[i]];
      if (!a.complete || a.hash == 0 || a.hash != expected) failed.fetch_add(1);
    }
  });
  return failed.load();
}

// --- the open-loop writer ------------------------------------------------------

/// Per-pair timings of the open-loop writer, timed from when each pair was
/// due (so a stall also charges the pairs queued behind it).
struct WriterLog {
  std::vector<double> pair_ms;  ///< due -> erase returned, timed pairs
  std::vector<double> lag_ms;   ///< due -> started, timed pairs
  std::uint64_t pairs = 0;      ///< every pair, warm-up included
  std::uint64_t timed_pairs = 0;
  std::uint64_t failures = 0;
};

/// Runs the writer schedule from `start` until `stop`: pair j is due at
/// start + j / rate; `write_pair` performs it and `compact` runs every
/// kCompactEvery pairs.  Pairs due before `window` are warm-up.
template <typename WritePair, typename Compact>
WriterLog run_writer(Clock::time_point start, Clock::time_point window, Clock::time_point stop,
                     WriteScript& script, WritePair&& write_pair, Compact&& compact) {
  WriterLog log;
  for (std::uint64_t j = 0;; ++j) {
    const Clock::time_point due = start + to_duration(static_cast<double>(j) / kPairsPerSecond);
    if (due >= stop || !script.can_insert()) break;
    std::this_thread::sleep_until(due);
    const Clock::time_point began = Clock::now();
    try {
      write_pair();
      const Clock::time_point done = Clock::now();
      ++log.pairs;
      if (due >= window) {
        ++log.timed_pairs;
        log.pair_ms.push_back(seconds_between(due, done) * 1e3);
        log.lag_ms.push_back(seconds_between(due, began) * 1e3);
      }
      if ((j + 1) % kCompactEvery == 0) compact();
    } catch (const std::exception& e) {
      ++log.failures;
      info("error", std::string("writer threw: ") + e.what());
      break;  // the script and the store disagree from here on
    }
  }
  return log;
}

// --- the facade run --------------------------------------------------------------

struct ReaderLog {
  std::vector<ReaderAnswer> answers;
  std::vector<double> latency_ms;  ///< timed calls
  std::vector<Completion> done;    ///< timed calls
  std::uint64_t thrown = 0;
  std::uint64_t scored = 0;        ///< timed answers that ran the protocol
  std::uint64_t rounds = 0;        ///< over scored answers
  std::uint64_t lone = 0;          ///< scored answers that owned their run
  std::uint64_t messages = 0;      ///< over lone answers
  std::uint64_t bits = 0;
};

struct FacadeRun {
  std::vector<ReaderLog> readers;
  WriterLog writer;
  std::vector<std::uint64_t> op_epochs;  ///< epoch after op i + 1
  double window_s = 0.0;
  dknn::ServiceStats stats_before;
  dknn::ServiceStats stats_after;
  std::map<std::uint64_t, std::uint64_t> seat_before;
  std::map<std::uint64_t, std::uint64_t> seat_after;
};

dknn::KnnService build_service(std::vector<dknn::VectorShard> shards) {
  dknn::BatchScoringConfig scoring;
  scoring.threads = kServiceThreads;
  return dknn::KnnServiceBuilder()
      .ell(kEll)
      .algo(dknn::KnnAlgo::DistKnn)
      .policy(dknn::ScoringPolicy::Auto)
      .live()
      .compaction(compaction_config())
      .cache_capacity(kCacheEntries)
      .scoring(scoring)
      .dataset_sharded(std::move(shards))
      .build();
}

FacadeRun drive_facade(dknn::KnnService& service, const ChurnData& data, WriteScript& script,
                       double seconds, bool inject_wrong) {
  FacadeRun run;
  run.readers.resize(kReaders);
  const Zipf zipf(kQueryPool, kZipfExponent);
  const Clock::time_point start = Clock::now();
  const Clock::time_point window = start + to_duration(warmup_seconds(seconds));
  const Clock::time_point stop = window + to_duration(seconds);

  const auto reader = [&](std::size_t r) {
    ReaderLog& log = run.readers[r];
    dknn::Rng rng = dknn::Rng(data.seed).split(10 + r);
    for (;;) {
      const Clock::time_point began = Clock::now();
      if (began >= stop) break;
      const std::uint32_t q = zipf.draw(rng);
      dknn::QueryResult result;
      try {
        result = service.query(data.queries[q]);
      } catch (const std::exception& e) {
        ++log.thrown;
        info("error", std::string("query threw: ") + e.what());
        continue;
      }
      const Clock::time_point done = Clock::now();
      if (began >= window) {
        log.latency_ms.push_back(seconds_between(began, done) * 1e3);
        log.done.push_back(Completion{seconds_between(window, done), 1});
        if (!result.cache_hit) {
          ++log.scored;
          log.rounds += result.report.rounds;
          if (result.batch_size == 1) {
            ++log.lone;
            log.messages += result.report.traffic.messages_sent();
            log.bits += result.report.traffic.bits_sent();
          }
        }
      }
      if (inject_wrong && r == 0 && log.answers.size() == kInjectedAnswer &&
          !result.keys.empty()) {
        result.keys.front().id ^= 1;
      }
      log.answers.push_back(ReaderAnswer{q, result.epoch, 0, result.coverage.complete(),
                                         answer_hash(result.keys)});
    }
  };

  const auto write_pair = [&] {
    const std::uint32_t row = script.take_insert();
    run.op_epochs.push_back(service.insert(data.all_points[row], data.all_ids[row]));
    const std::uint32_t victim = script.take_erase();
    const std::optional<std::uint64_t> epoch = service.erase(data.all_ids[victim]);
    if (!epoch) throw std::runtime_error("erase of a live id found nothing");
    run.op_epochs.push_back(*epoch);
  };
  const auto compact = [&] { (void)service.maybe_compact(); };

  run.stats_before = service.stats();
  run.seat_before = histogram_buckets(service.metrics_json(), "dknn_service_seat_wait_ns");
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < kReaders; ++r) threads.emplace_back(reader, r);
  run.writer = run_writer(start, window, stop, script, write_pair, compact);
  for (std::thread& t : threads) t.join();
  run.window_s = seconds_between(window, Clock::now());
  run.stats_after = service.stats();
  run.seat_after = histogram_buckets(service.metrics_json(), "dknn_service_seat_wait_ns");

  // Epoch -> writes applied: every op publishes a strictly larger epoch
  // under the service mutex, so an answer at epoch e saw exactly the ops
  // whose epoch is <= e.
  for (ReaderLog& log : run.readers) {
    for (ReaderAnswer& a : log.answers) {
      a.writes = static_cast<std::uint32_t>(
          std::upper_bound(run.op_epochs.begin(), run.op_epochs.end(), a.epoch) -
          run.op_epochs.begin());
    }
  }
  return run;
}

// --- the traced rig ----------------------------------------------------------------

/// The live service's layers composed by hand: one SegmentStore per
/// machine, one result cache, one Compactor per store on a shared pool.
/// A shared mutex makes each reader's four snapshots one consistent cut
/// (the facade gets the same from its published service snapshot).
class Rig {
 public:
  Rig(const std::vector<dknn::VectorShard>& shards, dknn::ThreadPool& pool)
      : cache_(kCacheEntries) {
    for (const dknn::VectorShard& shard : shards) {
      auto store = std::make_unique<dknn::SegmentStore>(kDim, dknn::ServeConfig{});
      store->insert_batch(shard.points, shard.ids);
      store->seal();
      stores_.push_back(std::move(store));
    }
    for (std::uint32_t m = 0; m < shards.size(); ++m) {
      for (const PointId id : shards[m].ids) home_[id] = m;
    }
    timings_ = std::make_unique<CompactionTiming[]>(stores_.size());
    for (std::size_t m = 0; m < stores_.size(); ++m) {
      auto compactor = std::make_unique<dknn::Compactor>(*stores_[m], pool, compaction_config());
      CompactionTiming* timing = &timings_[m];
      compactor->set_on_complete([timing](bool) {
        const std::lock_guard<std::mutex> lock(timing->mutex);
        timing->busy_ns += now_ns() - timing->scheduled_ns;
      });
      compactors_.push_back(std::move(compactor));
    }
  }

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  struct Cut {
    std::vector<dknn::SnapshotPtr> snapshots;
    std::uint32_t writes = 0;
    std::uint64_t epoch = 0;  ///< Σ store epochs: unique per cut's membership
  };

  [[nodiscard]] Cut snapshot() const {
    Cut cut;
    const std::shared_lock<std::shared_mutex> lock(cut_mutex_);
    for (const auto& store : stores_) cut.snapshots.push_back(store->snapshot());
    cut.writes = writes_;
    for (const auto& snap : cut.snapshots) cut.epoch += snap->epoch;
    return cut;
  }

  void insert(SpanLog& log, const PointD& point, PointId id) {
    const std::unique_lock<std::shared_mutex> lock(cut_mutex_);
    const std::uint32_t m = next_machine_++ % kMachines;
    {
      ScopedSpan span(log, "SegmentStore::insert", Layer::Serve);
      stores_[m]->insert(point, id);
    }
    home_[id] = m;
    ++writes_;
  }

  void erase(SpanLog& log, PointId id) {
    const std::unique_lock<std::shared_mutex> lock(cut_mutex_);
    const auto it = home_.find(id);
    if (it == home_.end()) throw std::runtime_error("rig erase of an unknown id");
    std::optional<std::uint64_t> epoch;
    {
      ScopedSpan span(log, "SegmentStore::erase", Layer::Serve);
      epoch = stores_[it->second]->erase(id);
    }
    if (!epoch) throw std::runtime_error("rig erase of a live id found nothing");
    home_.erase(it);
    ++writes_;
  }

  void maybe_compact(SpanLog& log) {
    for (std::size_t m = 0; m < compactors_.size(); ++m) {
      CompactionTiming& timing = timings_[m];
      const std::lock_guard<std::mutex> lock(timing.mutex);
      const std::uint64_t at = now_ns();
      ScopedSpan span(log, "Compactor::maybe_schedule", Layer::Serve);
      if (compactors_[m]->maybe_schedule()) timing.scheduled_ns = at;
    }
  }

  void drain() {
    for (const auto& compactor : compactors_) compactor->drain();
  }

  [[nodiscard]] dknn::EpochResultCache& cache() { return cache_; }

  [[nodiscard]] dknn::TreeStats tree_stats() const {
    dknn::TreeStats total;
    for (const auto& store : stores_) total += store->tree_stats();
    return total;
  }
  void reset_tree_stats() const {
    for (const auto& store : stores_) store->reset_tree_stats();
  }

  struct CompactionTotals {
    std::uint64_t scheduled = 0;
    std::uint64_t installed = 0;
    std::uint64_t busy_ns = 0;
    std::uint64_t debt = 0;
  };
  [[nodiscard]] CompactionTotals compaction_totals() {
    CompactionTotals out;
    for (std::size_t m = 0; m < compactors_.size(); ++m) {
      const dknn::Compactor::Stats stats = compactors_[m]->stats();
      out.scheduled += stats.scheduled;
      out.installed += stats.installed;
      out.debt += compactors_[m]->debt();
      const std::lock_guard<std::mutex> lock(timings_[m].mutex);
      out.busy_ns += timings_[m].busy_ns;
    }
    return out;
  }

 private:
  /// Schedule -> completion wall time of one compactor's rounds.
  struct CompactionTiming {
    std::mutex mutex;
    std::uint64_t scheduled_ns = 0;  ///< guarded by mutex
    std::uint64_t busy_ns = 0;       ///< guarded by mutex
  };

  std::vector<std::unique_ptr<dknn::SegmentStore>> stores_;
  dknn::EpochResultCache cache_;
  std::unique_ptr<CompactionTiming[]> timings_;
  std::vector<std::unique_ptr<dknn::Compactor>> compactors_;
  mutable std::shared_mutex cut_mutex_;
  std::uint32_t writes_ = 0;                           ///< guarded by cut_mutex_
  std::uint32_t next_machine_ = 0;                     ///< guarded by cut_mutex_
  std::unordered_map<PointId, std::uint32_t> home_;    ///< guarded by cut_mutex_
};

struct RigReader {
  SpanLog log;
  SelectTally select;
  std::vector<ReaderAnswer> answers;
  std::vector<std::uint32_t> traced_queries;  ///< query of each scored call, in order
  double rows = 0.0;            ///< brute-scanned rows (tree rows come from TreeStats)
  double shard_queries = 0.0;   ///< (scored query, non-empty segment) pairs
  double tree_queries = 0.0;    ///< of those, served by a kd-tree
  double segments = 0.0;        ///< Σ segments per store snapshot, every call
  double snapshots = 0.0;       ///< store snapshots taken
  std::uint64_t thrown = 0;

  explicit RigReader(std::uint32_t thread) : log(thread) {}
};

struct RigRun {
  std::vector<std::unique_ptr<RigReader>> readers;
  SpanLog writer_log{kReaders + 1};
  WriterLog writer;
  double window_s = 0.0;
  double tree_points = 0.0;
  Rig::CompactionTotals compaction;
  double pool_speedup = 0.0;
};

RigRun drive_rig(const ChurnData& data, WriteScript& script, double seconds) {
  RigRun run;
  // The rig's Compactors need a pool; one worker runs their rounds off the
  // writer.  Readers score serially, as the service's seat leader does.
  dknn::ThreadPool compaction_pool(1);
  Rig rig(data.initial_shards(), compaction_pool);
  dknn::BatchScoringConfig scoring;
  scoring.threads = kServiceThreads;
  const Zipf zipf(kQueryPool, kZipfExponent);
  for (std::uint32_t r = 0; r < kReaders; ++r) {
    run.readers.push_back(std::make_unique<RigReader>(r + 1));
  }
  rig.reset_tree_stats();
  const Clock::time_point start = Clock::now();
  const Clock::time_point window = start + to_duration(warmup_seconds(seconds));
  const Clock::time_point stop = window + to_duration(seconds);

  // One reader call: snapshot cut, cache lookup, and on a miss scoring,
  // selection and the cache insert, each in its layer's span.
  const auto call = [&](RigReader& me, dknn::Rng& rng) {
    me.log.begin_request();
    const std::uint64_t call_start = now_ns();
    const std::uint32_t q = zipf.draw(rng);
    const PointD& query = data.queries[q];
    Rig::Cut cut;
    {
      ScopedSpan span(me.log, "SegmentStore::snapshot", Layer::Serve);
      cut = rig.snapshot();
    }
    me.snapshots += static_cast<double>(cut.snapshots.size());
    for (const auto& snap : cut.snapshots) {
      me.segments += static_cast<double>(snap->segments.size());
    }
    const std::vector<std::uint64_t> bits = dknn::query_coord_bits(query);
    std::optional<std::vector<Key>> keys;
    {
      ScopedSpan span(me.log, "EpochResultCache::lookup", Layer::Core);
      keys = rig.cache().lookup(bits, cut.epoch);
    }
    if (!keys) {
      std::vector<std::vector<std::vector<Key>>> scored;
      {
        ScopedSpan span(me.log, "score_serve_snapshots_batch", Layer::Score);
        scored = dknn::score_serve_snapshots_batch(cut.snapshots, std::span(&query, 1), kEll,
                                                   dknn::MetricKind::SquaredEuclidean,
                                                   scoring);
      }
      dknn::BatchRunResult selected;
      {
        ScopedSpan span(me.log, "run_knn_batch", Layer::Select);
        selected = dknn::run_knn_batch(scored, kEll, dknn::KnnAlgo::DistKnn,
                                       dknn::EngineConfig{}, dknn::KnnConfig{});
      }
      me.select.add(selected);
      keys = std::move(selected.per_query.front().keys);
      {
        ScopedSpan span(me.log, "EpochResultCache::insert", Layer::Core);
        rig.cache().make_room(1, cut.epoch);
        rig.cache().insert(bits, cut.epoch, *keys);
      }
      me.traced_queries.push_back(q);
      // Routing as snapshot_top_ell_batch does it: clean tree segments
      // traverse the kd-tree, everything else scans its live rows.
      for (const auto& snap : cut.snapshots) {
        for (const dknn::SegmentView& seg : snap->segments) {
          if (seg.live() == 0) continue;
          me.shard_queries += 1.0;
          if (seg.dead_count == 0 && seg.data->tree != nullptr) {
            me.tree_queries += 1.0;
          } else {
            me.rows += static_cast<double>(seg.live());
          }
        }
      }
    }
    me.answers.push_back(ReaderAnswer{q, 0, cut.writes, true, answer_hash(*keys)});
    me.log.record("call", Layer::Call, call_start, now_ns());
  };

  const auto reader = [&](std::size_t r) {
    RigReader& me = *run.readers[r];
    dknn::Rng rng = dknn::Rng(data.seed).split(10 + r);
    while (Clock::now() < stop) {
      try {
        call(me, rng);
      } catch (const std::exception& e) {
        ++me.thrown;
        info("error", std::string("rig reader threw: ") + e.what());
      }
    }
  };

  const auto write_pair = [&] {
    const std::uint32_t row = script.take_insert();
    rig.insert(run.writer_log, data.all_points[row], data.all_ids[row]);
    rig.erase(run.writer_log, data.all_ids[script.take_erase()]);
  };
  const auto compact = [&] { rig.maybe_compact(run.writer_log); };

  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < kReaders; ++r) threads.emplace_back(reader, r);
  run.writer = run_writer(start, window, stop, script, write_pair, compact);
  for (std::thread& t : threads) t.join();
  run.window_s = seconds_between(start, Clock::now());
  rig.drain();
  run.compaction = rig.compaction_totals();
  run.tree_points = static_cast<double>(rig.tree_stats().points_scored);

  // pool.speedup_vs_serial: the first traced queries re-scored against the
  // final cut, one query per call as the readers scored them, serially and
  // on a pool of four.
  const Rig::Cut cut = rig.snapshot();
  std::vector<std::uint32_t> sample;
  for (const auto& me : run.readers) {
    for (const std::uint32_t q : me->traced_queries) {
      if (sample.size() < 64) sample.push_back(q);
    }
  }
  const auto time_all = [&](const dknn::BatchScoringConfig& config) {
    const Clock::time_point t0 = Clock::now();
    for (const std::uint32_t q : sample) {
      const auto scored = dknn::score_serve_snapshots_batch(
          cut.snapshots, std::span(&data.queries[q], 1), kEll,
          dknn::MetricKind::SquaredEuclidean, config);
      if (scored.size() != 1) throw std::runtime_error("scoring lost a query");
    }
    return seconds_between(t0, Clock::now());
  };
  dknn::ThreadPool probe_pool(4);
  dknn::BatchScoringConfig pooled;
  pooled.pool = &probe_pool;
  double serial_s = time_all(scoring);
  double pooled_s = time_all(pooled);
  serial_s = std::min(serial_s, time_all(scoring));
  pooled_s = std::min(pooled_s, time_all(pooled));
  run.pool_speedup = pooled_s > 0.0 ? serial_s / pooled_s : 0.0;
  return run;
}

std::size_t max_inserts(double seconds) {
  return static_cast<std::size_t>(kPairsPerSecond * (seconds + warmup_seconds(seconds) + 1.0)) +
         kCompactEvery;
}

}  // namespace

Sheet run_live_churn(const Options& options) {
  const double facade_seconds = options.trace ? options.seconds / 2.0 : options.seconds;
  const ChurnData data(options.seed, max_inserts(facade_seconds));

  dknn::KnnService service;
  const double setup_s = median_after_warmup(options.trace ? 1 : kSetupRepeats, [&] {
    service = dknn::KnnService();
    const Clock::time_point start = Clock::now();
    service = build_service(data.initial_shards());
    return seconds_between(start, Clock::now());
  });

  WriteScript facade_script(data);
  FacadeRun facade =
      drive_facade(service, data, facade_script, facade_seconds, options.inject_wrong_answer);
  const double rss_mb = peak_rss_mb();
  service = dknn::KnnService();

  std::vector<ReaderAnswer> facade_answers;
  std::vector<double> latency_ms;
  ReaderLog total;
  for (ReaderLog& log : facade.readers) {
    latency_ms.insert(latency_ms.end(), log.latency_ms.begin(), log.latency_ms.end());
    total.done.insert(total.done.end(), log.done.begin(), log.done.end());
    total.thrown += log.thrown;
    total.scored += log.scored;
    total.rounds += log.rounds;
    total.lone += log.lone;
    total.messages += log.messages;
    total.bits += log.bits;
    for (ReaderAnswer& a : log.answers) facade_answers.push_back(std::move(a));
  }
  const LatencySummary latency = summarize_latency(latency_ms, kTail);
  const LatencySummary writes = summarize_latency(facade.writer.pair_ms, kP99);
  const dknn::ServiceStats& s0 = facade.stats_before;
  const dknn::ServiceStats& s1 = facade.stats_after;
  const double hits = static_cast<double>(s1.cache_hits - s0.cache_hits);
  const double misses = static_cast<double>(s1.cache_misses - s0.cache_misses);
  info("calls", std::to_string(latency.count) + " timed reader calls in " +
                    fmt(facade.window_s) + " s; tail = " + latency.tail_label + " with " +
                    std::to_string(latency.beyond) + " samples beyond it; p90=" + fmt(latency.p90) +
                    " p99=" + fmt(latency.p99) + " p999=" + fmt(latency.p999));
  info("per_second", per_second(total.done, facade.window_s));
  info("writer", std::to_string(facade.writer.timed_pairs) + " timed pairs (" +
                     std::to_string(facade.writer.pairs) + " total); write_p50_ms=" +
                     fmt(writes.p50) + " write_tail_ms=" + fmt(writes.tail) + " (" +
                     writes.tail_label + ", " + std::to_string(writes.beyond) + " beyond)");
  info("protocol", std::to_string(total.scored) + " scored answers, " +
                       std::to_string(total.lone) + " of them uncoalesced (traffic sample); "
                       "cache hit rate " + fmt(hits + misses > 0 ? hits / (hits + misses) : 0.0));

  Sheet sheet;
  sheet.attempted = facade_answers.size() + total.thrown + facade.writer.pairs;
  sheet.failed = total.thrown + facade.writer.failures;
  if (!options.trace) {
    EndToEnd e2e;
    e2e.qps = facade.window_s > 0.0 ? static_cast<double>(latency.count) / facade.window_s : 0.0;
    e2e.latency_p50_ms = latency.p50;
    e2e.latency_tail_ms = latency.tail;
    e2e.setup_s = setup_s;
    e2e.peak_rss_mb = rss_mb;
    const auto per = [](double num, std::uint64_t den) {
      return den > 0 ? num / static_cast<double>(den) : 0.0;
    };
    e2e.rounds_per_query = per(static_cast<double>(total.rounds), total.scored);
    e2e.messages_per_query = per(static_cast<double>(total.messages), total.lone);
    e2e.bits_per_query = per(static_cast<double>(total.bits), total.lone);
    e2e.emit(sheet);
    sheet.failed += check_answers(data, facade_script, facade_answers);
    return sheet;
  }

  // Traced run: the same mix against the hand-composed rig.
  WriteScript rig_script(data);
  RigRun rig = drive_rig(data, rig_script, options.seconds / 2.0);
  std::vector<const SpanLog*> logs;
  std::vector<ReaderAnswer> rig_answers;
  std::uint64_t rig_thrown = 0;
  SelectTally select;
  double rows = 0.0, shard_queries = 0.0, tree_queries = 0.0, segments = 0.0, snapshots = 0.0;
  for (auto& me : rig.readers) {
    logs.push_back(&me->log);
    select += me->select;
    rows += me->rows;
    shard_queries += me->shard_queries;
    tree_queries += me->tree_queries;
    segments += me->segments;
    snapshots += me->snapshots;
    rig_thrown += me->thrown;
    for (ReaderAnswer& a : me->answers) rig_answers.push_back(std::move(a));
  }
  const LayerTimes times = layer_times(logs);
  PerLayer layers;
  fill_layer_rows(layers, times, select, kEll, kDim, kPoints, rows + rig.tree_points,
                  shard_queries, tree_queries);
  layers.pool_speedup_vs_serial = rig.pool_speedup;
  layers.core_cache_hit_rate = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  layers.core_cache_flushes_per_write =
      facade.writer.pairs > 0
          ? static_cast<double>(s1.cache_flushes - s0.cache_flushes) /
                static_cast<double>(facade.writer.pairs)
          : 0.0;
  const double queries = static_cast<double>(s1.queries - s0.queries);
  const double batches = static_cast<double>(s1.batches - s0.batches);
  layers.core_seat_batch_mean = batches > 0 ? queries / batches : 0.0;
  layers.core_seat_wait_p99_ms =
      histogram_delta_quantile(facade.seat_before, facade.seat_after, 0.99) / 1e6;

  std::vector<double> insert_ms;
  std::vector<double> erase_ms;
  for (const Span& span : rig.writer_log.spans()) {
    const double ms = static_cast<double>(span.duration_ns()) / 1e6;
    if (std::string(span.name) == "SegmentStore::insert") insert_ms.push_back(ms);
    if (std::string(span.name) == "SegmentStore::erase") erase_ms.push_back(ms);
  }
  std::sort(insert_ms.begin(), insert_ms.end());
  std::sort(erase_ms.begin(), erase_ms.end());
  layers.serve_insert_ms_p50 = percentile_sorted(insert_ms, 0.5);
  layers.serve_erase_ms_p50 = percentile_sorted(erase_ms, 0.5);
  layers.serve_snapshot_us =
      times.calls > 0 ? times.self_ns.at(Layer::Serve) / 1e3 / static_cast<double>(times.calls)
                      : 0.0;
  layers.serve_segments_mean = snapshots > 0 ? segments / snapshots : 0.0;
  layers.serve_compaction_ms_per_s =
      rig.window_s > 0 ? static_cast<double>(rig.compaction.busy_ns) / 1e6 / rig.window_s : 0.0;
  layers.serve_compactions_installed_ratio =
      rig.compaction.scheduled > 0
          ? static_cast<double>(rig.compaction.installed) /
                static_cast<double>(rig.compaction.scheduled)
          : 0.0;
  layers.serve_debt_end = static_cast<double>(rig.compaction.debt);
  layers.serve_writer_lag_ms = mean(rig.writer.lag_ms);
  layers.serve_write_p50_ms = writes.p50;
  layers.serve_write_tail_ms = writes.tail;

  const double untraced_ms = mean(latency_ms);
  const double traced_ms =
      times.calls > 0 ? static_cast<double>(times.call_ns) / 1e6 / static_cast<double>(times.calls)
                      : 0.0;
  layers.trace_overhead = untraced_ms > 0 ? traced_ms / untraced_ms - 1.0 : 0.0;
  info("traced", std::to_string(times.calls) + " rig reader calls; " + fmt(traced_ms) +
                     " ms/call traced vs " + fmt(untraced_ms) + " ms/call untraced; " +
                     std::to_string(rig.compaction.scheduled) + " compactions scheduled");
  layers.emit(sheet);
  logs.push_back(&rig.writer_log);
  if (!options.trace_out.empty()) write_chrome_trace(options.trace_out, logs);

  sheet.attempted += rig_answers.size() + rig_thrown + rig.writer.pairs;
  sheet.failed += rig_thrown + rig.writer.failures;
  sheet.failed += check_answers(data, facade_script, facade_answers);
  sheet.failed += check_answers(data, rig_script, rig_answers);
  return sheet;
}

}  // namespace perfbench
