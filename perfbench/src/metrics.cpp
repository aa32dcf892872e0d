#include <cmath>

#include "workloads.hpp"

namespace perfbench {

void EndToEnd::emit(Sheet& sheet) const {
  sheet.add("qps", qps, "1/s");
  sheet.add("latency_p50_ms", latency_p50_ms, "ms");
  sheet.add("latency_tail_ms", latency_tail_ms, "ms");
  sheet.add("setup_s", setup_s, "s");
  sheet.add("peak_rss_mb", peak_rss_mb, "MiB");
  sheet.add("rounds_per_query", rounds_per_query, "rounds");
  sheet.add("messages_per_query", messages_per_query, "messages");
  sheet.add("bits_per_query", bits_per_query, "bits");
}

void PerLayer::emit(Sheet& sheet) const {
  sheet.add("select.ms_per_query", select_ms_per_query, "ms");
  sheet.add("select.share", select_share, "ratio");
  sheet.add("select.us_per_round", select_us_per_round, "us");
  sheet.add("select.critical_path_share", select_critical_path_share, "ratio");
  sheet.add("select.attempts_per_query", select_attempts_per_query, "count");
  sheet.add("select.candidates_per_query", select_candidates_per_query, "count");
  sheet.add("select.rounds_per_log2_ell", select_rounds_per_log2_ell, "ratio");
  sheet.add("score.ms_per_query", score_ms_per_query, "ms");
  sheet.add("score.share", score_share, "ratio");
  sheet.add("score.points_per_query", score_points_per_query, "rows");
  sheet.add("score.scan_fraction", score_scan_fraction, "ratio");
  sheet.add("score.ns_per_point", score_ns_per_point, "ns");
  sheet.add("score.gb_per_s", score_gb_per_s, "GB/s");
  sheet.add("score.tree_route_share", score_tree_route_share, "ratio");
  sheet.add("pool.speedup_vs_serial", pool_speedup_vs_serial, "ratio");
  sheet.add("core.cache_hit_rate", core_cache_hit_rate, "ratio");
  sheet.add("core.cache_flushes_per_write", core_cache_flushes_per_write, "ratio");
  sheet.add("core.seat_batch_mean", core_seat_batch_mean, "queries");
  sheet.add("core.seat_wait_p99_ms", core_seat_wait_p99_ms, "ms");
  sheet.add("serve.insert_ms_p50", serve_insert_ms_p50, "ms");
  sheet.add("serve.erase_ms_p50", serve_erase_ms_p50, "ms");
  sheet.add("serve.snapshot_us", serve_snapshot_us, "us");
  sheet.add("serve.segments_mean", serve_segments_mean, "segments");
  sheet.add("serve.compaction_ms_per_s", serve_compaction_ms_per_s, "ms/s");
  sheet.add("serve.compactions_installed_ratio", serve_compactions_installed_ratio, "ratio");
  sheet.add("serve.debt_end", serve_debt_end, "rows");
  sheet.add("serve.writer_lag_ms", serve_writer_lag_ms, "ms");
  sheet.add("serve.write_p50_ms", serve_write_p50_ms, "ms");
  sheet.add("serve.write_tail_ms", serve_write_tail_ms, "ms");
  sheet.add("trace.overhead", trace_overhead, "ratio");
  sheet.add("trace.unattributed_share", trace_unattributed_share, "ratio");
}

void SelectTally::add(const dknn::BatchRunResult& run) {
  engine_rounds += run.report.rounds;
  critical_path_ns += run.report.critical_path_comp_ns;
  for (const dknn::GlobalRunResult& one : run.per_query) {
    ++queries;
    query_rounds += one.report.rounds;
    attempts += one.attempts;
    candidates += one.candidates;
  }
}

SelectTally& SelectTally::operator+=(const SelectTally& other) {
  queries += other.queries;
  query_rounds += other.query_rounds;
  engine_rounds += other.engine_rounds;
  critical_path_ns += other.critical_path_ns;
  attempts += other.attempts;
  candidates += other.candidates;
  return *this;
}

void fill_layer_rows(PerLayer& out, const LayerTimes& times, const SelectTally& select,
                     std::uint64_t ell, std::size_t dim, std::size_t resident_points,
                     double points, double shard_queries, double tree_queries) {
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const auto self = [&](Layer layer) {
    const auto it = times.self_ns.find(layer);
    return it == times.self_ns.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double queries = static_cast<double>(select.queries);
  const double call_ns = static_cast<double>(times.call_ns);
  const double select_ns = self(Layer::Select);
  const double score_ns = self(Layer::Score);

  out.select_ms_per_query = ratio(select_ns / 1e6, queries);
  out.select_share = ratio(select_ns, call_ns);
  out.select_us_per_round = ratio(select_ns / 1e3, static_cast<double>(select.engine_rounds));
  out.select_critical_path_share = ratio(static_cast<double>(select.critical_path_ns), select_ns);
  out.select_attempts_per_query = ratio(static_cast<double>(select.attempts), queries);
  out.select_candidates_per_query = ratio(static_cast<double>(select.candidates), queries);
  out.select_rounds_per_log2_ell =
      ratio(ratio(static_cast<double>(select.query_rounds), queries),
            std::log2(static_cast<double>(ell)));

  out.score_ms_per_query = ratio(score_ns / 1e6, queries);
  out.score_share = ratio(score_ns, call_ns);
  out.score_points_per_query = ratio(points, queries);
  out.score_scan_fraction = ratio(out.score_points_per_query, static_cast<double>(resident_points));
  out.score_ns_per_point = ratio(score_ns, points);
  // Computed bytes: every scanned row streams its d coordinates once.
  out.score_gb_per_s = ratio(points * static_cast<double>(dim) * 8.0, score_ns);
  out.score_tree_route_share = ratio(tree_queries, shard_queries);

  out.trace_unattributed_share = ratio(static_cast<double>(times.unattributed_ns), call_ns);
}

}  // namespace perfbench
