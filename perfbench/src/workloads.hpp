#pragma once
/// \file workloads.hpp
/// \brief The three workloads and the metric sheets they fill.

#include "common.hpp"

namespace perfbench {

/// End-to-end metrics: what a caller of the KnnService facade sees.
struct EndToEnd {
  double qps = 0.0;
  double latency_p50_ms = 0.0;
  double latency_tail_ms = 0.0;
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  double rounds_per_query = 0.0;
  double messages_per_query = 0.0;
  double bits_per_query = 0.0;

  void emit(Sheet& sheet) const;
};

/// Per-layer metrics of the traced run.  A field stays 0 where its layer
/// does not run in the workload (no writes on a static service, no seat
/// behind query_batch).
struct PerLayer {
  double select_ms_per_query = 0.0;
  double select_share = 0.0;
  double select_us_per_round = 0.0;
  double select_critical_path_share = 0.0;
  double select_attempts_per_query = 0.0;
  double select_candidates_per_query = 0.0;
  double select_rounds_per_log2_ell = 0.0;
  double score_ms_per_query = 0.0;
  double score_share = 0.0;
  double score_points_per_query = 0.0;
  double score_scan_fraction = 0.0;
  double score_ns_per_point = 0.0;
  double score_gb_per_s = 0.0;
  double score_tree_route_share = 0.0;
  double pool_speedup_vs_serial = 0.0;
  double core_cache_hit_rate = 0.0;
  double core_cache_flushes_per_write = 0.0;
  double core_seat_batch_mean = 0.0;
  double core_seat_wait_p99_ms = 0.0;
  double serve_insert_ms_p50 = 0.0;
  double serve_erase_ms_p50 = 0.0;
  double serve_snapshot_us = 0.0;
  double serve_segments_mean = 0.0;
  double serve_compaction_ms_per_s = 0.0;
  double serve_compactions_installed_ratio = 0.0;
  double serve_debt_end = 0.0;
  double serve_writer_lag_ms = 0.0;
  double serve_write_p50_ms = 0.0;
  double serve_write_tail_ms = 0.0;
  double trace_overhead = 0.0;
  double trace_unattributed_share = 0.0;

  void emit(Sheet& sheet) const;
};

/// Selection-layer telemetry accumulated over the traced calls.
struct SelectTally {
  std::uint64_t queries = 0;
  std::uint64_t query_rounds = 0;   ///< Σ per-query Algorithm 2 rounds
  std::uint64_t engine_rounds = 0;  ///< Σ supersteps of every run_knn_batch call
  std::uint64_t critical_path_ns = 0;
  std::uint64_t attempts = 0;
  std::uint64_t candidates = 0;

  void add(const dknn::BatchRunResult& run);
  SelectTally& operator+=(const SelectTally& other);
};

/// Fills the select.* and score.* rows shared by every workload from the
/// traced calls' layer times.  `points` is the rows the kernels scanned,
/// `shard_queries` / `tree_queries` the per-shard scoring calls and how
/// many of them the kd-tree served.
void fill_layer_rows(PerLayer& out, const LayerTimes& times, const SelectTally& select,
                     std::uint64_t ell, std::size_t dim, std::size_t resident_points,
                     double points, double shard_queries, double tree_queries);

[[nodiscard]] Sheet run_protocol_k64(const Options& options);
[[nodiscard]] Sheet run_scan_batch(const Options& options);
[[nodiscard]] Sheet run_live_churn(const Options& options);

}  // namespace perfbench
