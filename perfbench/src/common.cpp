#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <queue>
#include <sstream>
#include <thread>

#include "data/simd/dispatch.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

std::uint64_t now_ns() {
  static const Clock::time_point origin = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin).count());
}

void info(const std::string& key, const std::string& text) {
  std::cout << "# " << key << ": " << text << "\n";
}

std::string fmt(double value) {
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

// --- statistics ---------------------------------------------------------------

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  const double rank = std::clamp(std::ceil(p * n), 1.0, n);
  return sorted[static_cast<std::size_t>(rank) - 1];
}

LatencySummary summarize_latency(std::vector<double> samples_ms, TailPercentile tail) {
  std::sort(samples_ms.begin(), samples_ms.end());
  LatencySummary out;
  out.count = samples_ms.size();
  out.p50 = percentile_sorted(samples_ms, 0.50);
  out.p90 = percentile_sorted(samples_ms, 0.90);
  out.p99 = percentile_sorted(samples_ms, 0.99);
  out.p999 = percentile_sorted(samples_ms, 0.999);
  out.tail = percentile_sorted(samples_ms, tail.p);
  out.tail_label = tail.label;
  out.beyond = static_cast<std::size_t>(
      std::count_if(samples_ms.begin(), samples_ms.end(), [&](double v) { return v > out.tail; }));
  return out;
}

double median_after_warmup(std::size_t repeats, const std::function<double()>& sample) {
  (void)sample();
  std::vector<double> values;
  for (std::size_t r = 0; r < repeats; ++r) values.push_back(sample());
  std::sort(values.begin(), values.end());
  const double median = values[values.size() / 2];
  info("setup", "median " + fmt(median) + " s over " + std::to_string(repeats) +
                    " builds (min " + fmt(values.front()) + ", max " + fmt(values.back()) + ")");
  return median;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::string per_second(const std::vector<Completion>& done, double window_s) {
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(std::max(window_s, 0.0)), 0);
  for (const Completion& c : done) {
    const auto second = static_cast<std::size_t>(std::max(c.at_s, 0.0));
    if (second < counts.size()) counts[second] += c.queries;
  }
  std::string out;
  for (const std::uint64_t n : counts) {
    if (!out.empty()) out += ' ';
    out += std::to_string(n);
  }
  return out;
}

// --- oracle -------------------------------------------------------------------

ColumnSet::ColumnSet(const std::vector<dknn::PointD>& points,
                     const std::vector<dknn::PointId>& ids, std::size_t dim)
    : dim_(dim), cols_(dim * points.size()), ids_(ids) {
  const std::size_t n = points.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < dim_; ++j) cols_[j * n + i] = points[i][j];
  }
}

std::vector<dknn::Key> ColumnSet::smallest(const dknn::PointD& query, std::size_t m,
                                           const std::function<bool(std::size_t)>& alive) const {
  constexpr std::size_t kBlock = 512;
  const std::size_t n = ids_.size();
  std::priority_queue<dknn::Key> heap;  // max-heap of the m best so far
  double acc[kBlock];
  for (std::size_t lo = 0; lo < n; lo += kBlock) {
    const std::size_t len = std::min(kBlock, n - lo);
    std::fill(acc, acc + len, 0.0);
    for (std::size_t j = 0; j < dim_; ++j) {
      const double* col = cols_.data() + j * n + lo;
      const double q = query[j];
      for (std::size_t i = 0; i < len; ++i) {
        const double d = col[i] - q;
        acc[i] += d * d;
      }
    }
    for (std::size_t i = 0; i < len; ++i) {
      const dknn::Key key{std::bit_cast<std::uint64_t>(acc[i]), ids_[lo + i]};
      if (heap.size() == m && !(key < heap.top())) continue;
      if (alive && !alive(lo + i)) continue;
      if (heap.size() < m) {
        heap.push(key);
      } else {
        heap.pop();
        heap.push(key);
      }
    }
  }
  std::vector<dknn::Key> out(heap.size());
  for (std::size_t i = out.size(); i-- > 0;) {
    out[i] = heap.top();
    heap.pop();
  }
  return out;
}

void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& body) {
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next++; i < n; i = next++) body(i);
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < std::min(threads, n); ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
}

std::size_t check_threads() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

void fold_digest(std::uint64_t& digest, const std::vector<dknn::Key>& keys) {
  const auto mix = [&](std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      digest ^= (word >> (8 * b)) & 0xff;
      digest *= 0x100000001b3ULL;
    }
  };
  mix(keys.size());
  for (const dknn::Key& key : keys) {
    mix(key.rank);
    mix(key.id);
  }
}

std::uint64_t answer_hash(const std::vector<dknn::Key>& keys) {
  if (keys.empty()) return 0;
  std::uint64_t digest = kDigestSeed;
  fold_digest(digest, keys);
  return digest;
}

std::string hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

std::vector<dknn::VectorShard> shard_round_robin(const std::vector<dknn::PointD>& points,
                                                 const std::vector<dknn::PointId>& ids,
                                                 std::uint32_t machines) {
  std::vector<dknn::VectorShard> shards(machines);
  for (auto& shard : shards) {
    shard.points.reserve(points.size() / machines + 1);
    shard.ids.reserve(points.size() / machines + 1);
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    dknn::VectorShard& shard = shards[i % machines];
    shard.points.push_back(points[i]);
    shard.ids.push_back(ids[i]);
  }
  return shards;
}

// --- traced run ---------------------------------------------------------------

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::Call: return "call";
    case Layer::Core: return "core";
    case Layer::Select: return "select";
    case Layer::Score: return "score";
    case Layer::Serve: return "serve";
  }
  return "?";
}

LayerTimes layer_times(const std::vector<const SpanLog*>& logs) {
  LayerTimes out;
  for (const SpanLog* log : logs) {
    // Requests whose root span closed: only their layer spans count, so
    // spans outside any timed call (writer ops, set-up) stay out.
    std::map<std::uint64_t, std::uint64_t> roots;
    for (const Span& span : log->spans()) {
      if (span.layer == Layer::Call) roots[span.request] = span.duration_ns();
    }
    std::map<std::uint64_t, std::uint64_t> covered;
    for (const Span& span : log->spans()) {
      if (span.layer == Layer::Call || roots.count(span.request) == 0) continue;
      out.self_ns[span.layer] += span.duration_ns();
      covered[span.request] += span.duration_ns();
    }
    for (const auto& [request, duration] : roots) {
      ++out.calls;
      out.call_ns += duration;
      const std::uint64_t inside = covered[request];
      out.unattributed_ns += duration > inside ? duration - inside : 0;
    }
  }
  return out;
}

void write_chrome_trace(const std::string& path, const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "perfbench: cannot write trace to " << path << "\n";
    return;
  }
  constexpr std::size_t kSpansPerThread = 4000;  // keeps the file a few MB
  out << "{\"traceEvents\": [";
  out.setf(std::ios::fixed);
  out.precision(3);
  bool first = true;
  for (const SpanLog* log : logs) {
    const std::size_t n = std::min(log->spans().size(), kSpansPerThread);
    for (std::size_t i = 0; i < n; ++i) {
      const Span& span = log->spans()[i];
      out << (first ? "\n" : ",\n");
      first = false;
      out << "{\"name\": \"" << span.name << "\", \"cat\": \"" << layer_name(span.layer)
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << span.thread
          << ", \"ts\": " << static_cast<double>(span.start_ns) / 1e3
          << ", \"dur\": " << static_cast<double>(span.duration_ns()) / 1e3
          << ", \"args\": {\"request\": " << span.request << "}}";
    }
  }
  out << "\n]}\n";
}

// --- observability and environment --------------------------------------------

std::map<std::uint64_t, std::uint64_t> histogram_buckets(const std::string& json,
                                                         const std::string& name) {
  std::map<std::uint64_t, std::uint64_t> out;
  const std::size_t at = json.find("\"" + name + "\"");
  if (at == std::string::npos) return out;
  std::size_t pos = json.find("\"buckets\": [", at);
  const std::size_t end = json.find("]}", at);
  if (pos == std::string::npos || end == std::string::npos || pos > end) return out;
  pos += 12;
  while (true) {
    pos = json.find('[', pos);
    if (pos == std::string::npos || pos > end) break;
    unsigned long long lo = 0;
    unsigned long long count = 0;
    if (std::sscanf(json.c_str() + pos, "[%llu, %llu]", &lo, &count) != 2) break;
    out[lo] = count;
    ++pos;
  }
  return out;
}

double histogram_delta_quantile(const std::map<std::uint64_t, std::uint64_t>& before,
                                const std::map<std::uint64_t, std::uint64_t>& after, double q,
                                std::uint64_t* count) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> delta;
  std::uint64_t total = 0;
  for (const auto& [lo, n] : after) {
    const auto it = before.find(lo);
    const std::uint64_t prior = it == before.end() ? 0 : it->second;
    if (n > prior) {
      delta.emplace_back(lo, n - prior);
      total += n - prior;
    }
  }
  if (count != nullptr) *count = total;
  if (total == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::clamp(std::ceil(q * static_cast<double>(total)), 1.0, static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (const auto& [lo, n] : delta) {
    seen += n;
    if (seen >= rank) {
      return static_cast<double>(dknn::obs::bucket_representative(dknn::obs::bucket_index(lo)));
    }
  }
  return static_cast<double>(delta.back().first);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void print_environment(const Options& options) {
  const char* forced = std::getenv("DKNN_FORCE_ISA");
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  info("env", "nproc=" + std::to_string(std::thread::hardware_concurrency()) +
                  " isa=" + dknn::simd::isa_name(dknn::simd::active_isa()) +
                  " DKNN_FORCE_ISA=" + (forced != nullptr ? forced : "unset") +
                  " build=" + build_type + " compiler=" PERFBENCH_COMPILER +
                  " commit=" + options.commit);
#ifndef NDEBUG
  const bool asserts = true;
#else
  const bool asserts = false;
#endif
  if (build_type != "Release" || asserts) {
    const std::string warning =
        "WARNING: perfbench built as '" + build_type +
        "' (not Release): its numbers are not comparable with Release runs";
    std::cout << "# " << warning << "\n";
    std::cerr << "\n!!! " << warning << " !!!\n\n";
  }
  info("workload", options.workload + " seed=" + std::to_string(options.seed) +
                       " seconds=" + fmt(options.seconds) +
                       " trace=" + (options.trace ? "1" : "0"));
}

}  // namespace perfbench
