#pragma once
/// \file common.hpp
/// \brief Pieces every perfbench workload shares: the command line, the
///        result sheet, latency statistics, the brute-force oracle, the
///        span log of the traced run, and the environment stamp.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "data/key.hpp"
#include "data/point.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds from `from` to `to`.
[[nodiscard]] double seconds_between(Clock::time_point from, Clock::time_point to);
/// Nanoseconds since the process's first call (monotone, for spans).
[[nodiscard]] std::uint64_t now_ns();

/// The command line: `--workload NAME --seed N --seconds S --trace 0|1`.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Source revision for the environment stamp (run.py passes it).
  std::string commit = "unknown";
  /// Where the traced run writes its spans (Chrome trace JSON); empty = none.
  std::string trace_out;
  /// Self-test hook: corrupt one answer before the check, which must then
  /// fail the run.  Used by perfbench/tests only.
  bool inject_wrong_answer = false;
};

/// One named measurement with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run hands back to main: the metrics of the run's kind
/// (end-to-end, or per-layer when traced) and the answer-check ledger.
struct Sheet {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
};

/// Prints one human-readable line (`# key: text`) to stdout.
void info(const std::string& key, const std::string& text);
/// Formats a double with enough digits to round-trip.
[[nodiscard]] std::string fmt(double value);

// --- statistics ---------------------------------------------------------------

/// Ceil nearest-rank percentile of an ascending sample (p in [0, 1]).
[[nodiscard]] double percentile_sorted(const std::vector<double>& sorted, double p);

/// A tail percentile a workload reports.  Each workload fixes the highest
/// of p90 / p99 / p999 that leaves at least ten samples beyond it in a
/// normal run, so the metric means the same thing on a faster build.
struct TailPercentile {
  double p;
  const char* label;
};
inline constexpr TailPercentile kP90{0.90, "p90"};
inline constexpr TailPercentile kP99{0.99, "p99"};

/// Median and tail of a latency sample; `beyond` counts the samples above
/// the tail, which should be at least ten.
struct LatencySummary {
  std::size_t count = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  double tail = 0.0;
  const char* tail_label = "";
  std::size_t beyond = 0;
};
[[nodiscard]] LatencySummary summarize_latency(std::vector<double> samples_ms,
                                               TailPercentile tail);

/// Median of `repeats` samples of `sample()`, after one untimed warm-up
/// call: the process's first build also pays its first-touch page faults
/// and allocator growth, which vary from run to run far more than the
/// build itself.
[[nodiscard]] double median_after_warmup(std::size_t repeats,
                                         const std::function<double()>& sample);

[[nodiscard]] double mean(const std::vector<double>& values);

/// One completed call: seconds since the timed window opened, and how many
/// queries it answered.
struct Completion {
  double at_s = 0.0;
  std::uint32_t queries = 0;
};
/// Queries completed in each whole second of the window, as a
/// space-separated list (the run's throughput over time, printed so noise
/// from the machine shows next to the result).
[[nodiscard]] std::string per_second(const std::vector<Completion>& done, double window_s);

// --- oracle -------------------------------------------------------------------

/// Column-major copy of a point set with its ids: the benchmark's own data
/// for brute-force answers.  Distances are summed dimension-ascending with
/// no FMA contraction — the library's contract — so keys compare exactly.
class ColumnSet {
 public:
  /// points[i] carries ids[i]; every point has dimension `dim`.
  ColumnSet(const std::vector<dknn::PointD>& points, const std::vector<dknn::PointId>& ids,
            std::size_t dim);

  /// The `m` smallest (distance, id) keys to `query`, ascending, over the
  /// rows `alive(row)` admits (every row when it is empty).
  [[nodiscard]] std::vector<dknn::Key> smallest(
      const dknn::PointD& query, std::size_t m,
      const std::function<bool(std::size_t)>& alive = {}) const;

 private:
  std::size_t dim_;
  std::vector<double> cols_;                  ///< cols_[j * n + i]
  std::vector<dknn::PointId> ids_;
};

/// Runs body(i) for i in [0, n) on up to `threads` threads.
void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& body);

/// Threads the oracle and other checking work may use.
[[nodiscard]] std::size_t check_threads();

/// FNV-1a over a key sequence, folded into `digest`.
void fold_digest(std::uint64_t& digest, const std::vector<dknn::Key>& keys);
/// FNV-1a of one answer's keys (0 for an empty answer).  Runs keep this
/// instead of the keys so memory stays flat however many calls a run makes.
[[nodiscard]] std::uint64_t answer_hash(const std::vector<dknn::Key>& keys);
/// The offset basis fold_digest starts from.
inline constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ULL;
/// Self-test hook: which recorded answer --inject-wrong-answer corrupts.
inline constexpr std::size_t kInjectedAnswer = 10;
[[nodiscard]] std::string hex(std::uint64_t value);

/// Round-robin sharding with caller-chosen ids: point i lands on machine
/// i mod k.  The ids are the benchmark's, so the oracle knows every key.
[[nodiscard]] std::vector<dknn::VectorShard> shard_round_robin(
    const std::vector<dknn::PointD>& points, const std::vector<dknn::PointId>& ids,
    std::uint32_t machines);

// --- traced run ---------------------------------------------------------------

/// The repository's layers, as the traced run attributes time to them.
enum class Layer : std::uint8_t { Call, Core, Select, Score, Serve };
[[nodiscard]] const char* layer_name(Layer layer);

/// One timed call into a layer's public function.  `request` groups the
/// spans of one benchmark call; `Call` spans are the request roots.
struct Span {
  const char* name = "";
  Layer layer = Layer::Call;
  std::uint32_t thread = 0;
  std::uint64_t request = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  [[nodiscard]] std::uint64_t duration_ns() const { return end_ns - start_ns; }
};

/// One thread's span buffer (kept in memory, written out at the end).
class SpanLog {
 public:
  explicit SpanLog(std::uint32_t thread) : thread_(thread) {}

  /// Starts a new request; spans recorded until the next call belong to it.
  void begin_request() { ++request_; }
  void record(const char* name, Layer layer, std::uint64_t start_ns, std::uint64_t end_ns) {
    spans_.push_back(Span{name, layer, thread_, request_, start_ns, end_ns});
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint32_t thread_;
  std::uint64_t request_ = 0;
  std::vector<Span> spans_;
};

/// RAII span: times its scope into `log`.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, Layer layer)
      : log_(log), name_(name), layer_(layer), start_(now_ns()) {}
  ~ScopedSpan() { log_.record(name_, layer_, start_, now_ns()); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  const char* name_;
  Layer layer_;
  std::uint64_t start_;
};

/// Time per layer over the spans of request-rooted calls.  A layer's self
/// time is its spans' total (layer spans never nest); `call_ns` is the
/// total of the request roots, and `unattributed_ns` what no layer span
/// covers inside them.
struct LayerTimes {
  std::uint64_t calls = 0;
  std::uint64_t call_ns = 0;
  std::map<Layer, std::uint64_t> self_ns;
  std::uint64_t unattributed_ns = 0;
};
[[nodiscard]] LayerTimes layer_times(const std::vector<const SpanLog*>& logs);

/// Writes every span as a Chrome trace (chrome://tracing, Perfetto).
void write_chrome_trace(const std::string& path, const std::vector<const SpanLog*>& logs);

// --- observability and environment --------------------------------------------

/// One histogram of `KnnService::metrics_json()` as (bucket lower bound →
/// count); empty when the histogram is absent.
[[nodiscard]] std::map<std::uint64_t, std::uint64_t> histogram_buckets(const std::string& json,
                                                                       const std::string& name);
/// Quantile of the samples recorded between two histogram_buckets() reads,
/// at the representative value of its bucket; 0 when nothing was recorded.
[[nodiscard]] double histogram_delta_quantile(const std::map<std::uint64_t, std::uint64_t>& before,
                                              const std::map<std::uint64_t, std::uint64_t>& after,
                                              double q, std::uint64_t* count = nullptr);

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Prints the environment stamp (nproc, ISA, build type, compiler,
/// commit) and warns loudly on a non-Release build.
void print_environment(const Options& options);

}  // namespace perfbench
