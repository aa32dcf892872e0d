#include "serve/segment_store.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <unordered_set>
#include <utility>

#include "data/validate.hpp"
#include "obs/metrics.hpp"
#include "seq/select.hpp"
#include "support/panic.hpp"

namespace dknn {
namespace {

/// Store-layer instruments, registered once and cached (the registry
/// lookup takes a mutex; the instruments themselves are sharded atomics).
struct StoreMetrics {
  obs::Counter& inserts = obs::registry().counter(
      "dknn_store_inserts_total", "points appended into any SegmentStore delta");
  obs::Counter& erases = obs::registry().counter(
      "dknn_store_erases_total", "successful erases (delta removals + tombstones)");
  obs::Counter& seals = obs::registry().counter(
      "dknn_store_seals_total", "delta seals into immutable segments");
  obs::Counter& publishes = obs::registry().counter(
      "dknn_store_epoch_publishes_total", "snapshot publishes (epoch advances)");
  obs::Counter& compaction_installs = obs::registry().counter(
      "dknn_store_compaction_installs_total", "compaction installs that replaced victims");
  obs::Gauge& live_points = obs::registry().gauge(
      "dknn_store_live_points", "live points across all stores (delta + sealed, minus dead)");
  obs::Gauge& dead_rows = obs::registry().gauge(
      "dknn_store_dead_rows", "tombstoned rows across all stores' sealed segments");
};

StoreMetrics& store_metrics() {
  static StoreMetrics m;
  return m;
}

/// Seals an AoS point set into an immutable segment under the store's
/// scoring policy and leaf size.
std::shared_ptr<const SealedSegment> build_segment(std::span<const PointD> points,
                                                   std::span<const PointId> ids,
                                                   const ServeConfig& config) {
  auto segment = std::make_shared<SealedSegment>();
  static_cast<ShardIndex&>(*segment) =
      build_shard_index(points, ids, config.policy, config.leaf_size);
  const FlatStore& store = segment->store();
  segment->row_of.reserve(store.size());
  for (std::size_t i = 0; i < store.size(); ++i) {
    segment->row_of.emplace(store.id(i), static_cast<std::uint32_t>(i));
  }
  return segment;
}

/// Maximal live-row runs of a tombstone bitmap.
std::shared_ptr<const LiveRuns> compute_live_runs(const std::vector<std::uint8_t>& dead) {
  auto runs = std::make_shared<LiveRuns>();
  std::size_t i = 0;
  while (i < dead.size()) {
    if (dead[i] != 0) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < dead.size() && dead[j] == 0) ++j;
    runs->emplace_back(i, j);
    i = j;
  }
  return runs;
}

/// A fresh all-live view around a sealed payload.
SegmentView make_clean_view(std::shared_ptr<const SealedSegment> data,
                            std::uint64_t segment_id) {
  SegmentView view;
  const std::size_t n = data->store().size();
  view.data = std::move(data);
  view.dead = std::make_shared<const std::vector<std::uint8_t>>(n, std::uint8_t{0});
  view.dead_count = 0;
  auto runs = std::make_shared<LiveRuns>();
  if (n > 0) runs->emplace_back(0, n);
  view.live_runs = std::move(runs);
  view.segment_id = segment_id;
  return view;
}

}  // namespace

bool ServeSnapshot::contains(PointId id) const {
  for (const SegmentView& seg : segments) {
    const SealedSegment& data = *seg.data;
    if (data.row_of.empty() && !data.store().empty()) {
      // Delta mirror: no id map (an O(delta) rebuild per publish would
      // defeat the O(d) incremental mirror), so scan — the delta is
      // bounded by seal_threshold and tombstone-free.
      const FlatStore& store = data.store();
      for (std::size_t i = 0; i < store.size(); ++i) {
        if (store.id(i) == id) return true;
      }
      continue;
    }
    const auto it = data.row_of.find(id);
    if (it != data.row_of.end() && (*seg.dead)[it->second] == 0) return true;
  }
  return false;
}

SegmentStore::SegmentStore(std::size_t dim, ServeConfig config)
    : dim_(dim), config_(config) {
  DKNN_REQUIRE(dim_ >= 1, "SegmentStore: needs dimension >= 1");
  DKNN_REQUIRE(config_.seal_threshold >= 1, "SegmentStore: seal_threshold must be positive");
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  publish_locked();  // epoch 1: the empty store
}

SegmentStore::~SegmentStore() {
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  store_metrics().live_points.sub(obs_live_published_);
  store_metrics().dead_rows.sub(obs_dead_published_);
}

bool SegmentStore::live_in_writer_state(PointId id) const {
  if (delta_rows_.contains(id)) return true;
  for (const SegmentView& seg : segments_) {
    const auto it = seg.data->row_of.find(id);
    if (it != seg.data->row_of.end() && (*seg.dead)[it->second] == 0) return true;
  }
  return false;
}

std::uint64_t SegmentStore::insert(const PointD& point, PointId id) {
  return insert_batch(std::span<const PointD>(&point, 1), std::span<const PointId>(&id, 1));
}

std::uint64_t SegmentStore::insert_batch(std::span<const PointD> points,
                                         std::span<const PointId> ids) {
  DKNN_REQUIRE(points.size() == ids.size(), "SegmentStore: points/ids must align");
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  if (points.empty()) return epoch_;
  std::unordered_set<PointId> batch_ids;
  batch_ids.reserve(ids.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    DKNN_REQUIRE(points[i].dim() == dim_, "SegmentStore: point dimension mismatch");
    // Unique live ids (paper §2): duplicates would break the total Key
    // order every selection algorithm relies on.  Validation runs before
    // any append so a rejected batch leaves the store untouched.
    DKNN_REQUIRE(!live_in_writer_state(ids[i]), "SegmentStore: id already live");
    DKNN_REQUIRE(batch_ids.insert(ids[i]).second, "SegmentStore: duplicate id in batch");
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    delta_rows_.emplace(ids[i], delta_points_.size());
    delta_points_.push_back(points[i]);
    delta_ids_.push_back(ids[i]);
  }
  store_metrics().inserts.add(points.size());
  delta_dirty_ = true;
  if (delta_points_.size() >= config_.seal_threshold) seal_locked();
  return publish_locked();
}

std::optional<std::uint64_t> SegmentStore::erase(PointId id) {
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  // Delta hit: physically remove (swap with the last delta row).
  if (const auto it = delta_rows_.find(id); it != delta_rows_.end()) {
    const std::size_t row = it->second;
    const std::size_t last = delta_points_.size() - 1;
    if (row != last) {
      delta_points_[row] = std::move(delta_points_[last]);
      delta_ids_[row] = delta_ids_[last];
      delta_rows_[delta_ids_[row]] = row;
    }
    delta_points_.pop_back();
    delta_ids_.pop_back();
    delta_rows_.erase(it);
    delta_dirty_ = true;
    // The swap-remove rewrote a published mirror row in place, so the
    // current mirror generation's frozen-prefix contract is void: the next
    // publish starts a fresh generation (the rare O(delta·d) path).
    mirror_fresh_needed_ = true;
    store_metrics().erases.add();
    return publish_locked();
  }
  // Sealed hit: copy-on-write tombstone.  An id may appear dead in an old
  // segment and live in a newer one (delete + re-insert), so keep looking
  // past dead occurrences.
  for (SegmentView& seg : segments_) {
    const auto it = seg.data->row_of.find(id);
    if (it == seg.data->row_of.end() || (*seg.dead)[it->second] != 0) continue;
    auto dead = std::make_shared<std::vector<std::uint8_t>>(*seg.dead);
    (*dead)[it->second] = 1;
    seg.live_runs = compute_live_runs(*dead);
    seg.dead = std::move(dead);
    ++seg.dead_count;
    store_metrics().erases.add();
    return publish_locked();
  }
  return std::nullopt;
}

std::uint64_t SegmentStore::seal() {
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  if (delta_points_.empty()) return epoch_;
  seal_locked();
  return publish_locked();
}

void SegmentStore::seal_locked() {
  if (delta_points_.empty()) return;
  auto data = build_segment(delta_points_, delta_ids_, config_);
  segments_.push_back(make_clean_view(std::move(data), next_segment_id_++));
  delta_points_.clear();
  delta_ids_.clear();
  delta_rows_.clear();
  delta_dirty_ = true;
  store_metrics().seals.add();
}

std::uint64_t SegmentStore::publish_locked() {
  if (delta_dirty_) {
    // The mirror is a plain FlatStore over writer-owned capacity-strided
    // column buffers (never a tree — the delta is far too short-lived to
    // amortize one).  Inserts only *append* delta rows, so the rows a
    // previous publish exposed are already in the buffers and frozen;
    // syncing the tail costs O(d) per new row instead of the historical
    // O(delta·d) rebuild.  A delta erase rewrites a published row
    // (swap-remove), which voids the generation: a fresh buffer is
    // allocated and fully recopied, while snapshots holding the old
    // generation keep it alive untouched.
    const std::size_t n = delta_points_.size();
    if (n == 0) {
      delta_mirror_ = nullptr;
      mirror_coords_ = nullptr;
      mirror_ids_ = nullptr;
      mirror_zero_dead_ = nullptr;
      mirror_cap_ = 0;
      mirror_synced_ = 0;
      mirror_fresh_needed_ = false;
    } else {
      if (mirror_fresh_needed_ || mirror_coords_ == nullptr || n > mirror_cap_) {
        mirror_cap_ = std::max<std::size_t>(config_.seal_threshold, std::bit_ceil(n));
        mirror_coords_ = std::make_shared<std::vector<double>>(dim_ * mirror_cap_);
        mirror_ids_ = std::make_shared<std::vector<PointId>>(mirror_cap_);
        mirror_zero_dead_ =
            std::make_shared<const std::vector<std::uint8_t>>(mirror_cap_, std::uint8_t{0});
        mirror_synced_ = 0;
        mirror_fresh_needed_ = false;
      }
      for (std::size_t i = mirror_synced_; i < n; ++i) {
        const PointD& p = delta_points_[i];
        for (std::size_t j = 0; j < dim_; ++j) {
          (*mirror_coords_)[j * mirror_cap_ + i] = p[j];
        }
        (*mirror_ids_)[i] = delta_ids_[i];
      }
      mirror_copied_bytes_ +=
          static_cast<std::uint64_t>(n - mirror_synced_) * dim_ * sizeof(double);
      mirror_synced_ = n;
      auto mirror = std::make_shared<SealedSegment>();
      mirror->flat = FlatStore(mirror_coords_, mirror_ids_, n, dim_, mirror_cap_);
      // row_of deliberately left empty — ServeSnapshot::contains scans the
      // mirror instead (see the fallback there).
      delta_mirror_ = std::move(mirror);
    }
    delta_dirty_ = false;
  }
  auto next = std::make_shared<ServeSnapshot>();
  next->epoch = ++epoch_;
  next->dim = dim_;
  next->segments = segments_;
  if (delta_mirror_ != nullptr) {
    // Present the delta as one more (tombstone-free) segment so queries
    // treat every point source uniformly.  Id 0 is reserved for it —
    // sealed segments start at 1 — so compaction can never mistake the
    // mirror for a victim.  The view is hand-built (not make_clean_view)
    // so the all-zero dead bitmap is shared per generation instead of
    // allocated O(n) per publish.
    SegmentView view;
    view.data = delta_mirror_;
    view.dead = mirror_zero_dead_;
    view.dead_count = 0;
    auto runs = std::make_shared<LiveRuns>();
    runs->emplace_back(0, delta_mirror_->store().size());
    view.live_runs = std::move(runs);
    view.segment_id = 0;
    next->segments.push_back(std::move(view));
  }
  for (const SegmentView& seg : next->segments) next->live_points += seg.live();
  {
    StoreMetrics& m = store_metrics();
    m.publishes.add();
    // Delta-tracked gauges: contribute the change since this store's last
    // publish, so the merged gauge is the sum over all live stores.  Only
    // advance the book-kept baseline while enabled — gauge adds are
    // dropped when disabled, and a silently advanced baseline would make
    // the gauge drift on re-enable.
    if (obs::registry().enabled()) {
      std::int64_t dead = 0;
      for (const SegmentView& seg : segments_) dead += static_cast<std::int64_t>(seg.dead_count);
      const auto live = static_cast<std::int64_t>(next->live_points);
      m.live_points.add(live - obs_live_published_);
      m.dead_rows.add(dead - obs_dead_published_);
      obs_live_published_ = live;
      obs_dead_published_ = dead;
    }
  }
  {
    const std::lock_guard<std::mutex> lock(snapshot_mutex_);
    published_ = std::move(next);
  }
  return epoch_;
}

std::size_t SegmentStore::segment_count() const {
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  return segments_.size();
}

std::uint64_t SegmentStore::dead_rows() const {
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  std::uint64_t dead = 0;
  for (const SegmentView& seg : segments_) dead += seg.dead_count;
  return dead;
}

TreeStats SegmentStore::tree_stats() const {
  TreeStats out;
  {
    // The base holds every compaction-retired segment's counters, so the
    // total stays monotone across installs instead of silently shrinking.
    const std::lock_guard<std::mutex> lock(writer_mutex_);
    out += retired_tree_base_;
  }
  // Snapshot, not writer state: counters belong to the segments queries
  // actually traverse, and snapshot() is wait-free w.r.t. writers.
  const SnapshotPtr snap = snapshot();
  for (const SegmentView& seg : snap->segments) {
    if (seg.data->tree != nullptr) out += seg.data->tree->stats();
  }
  return out;
}

void SegmentStore::reset_tree_stats() const {
  {
    const std::lock_guard<std::mutex> lock(writer_mutex_);
    retired_tree_base_ = TreeStats{};
  }
  const SnapshotPtr snap = snapshot();
  for (const SegmentView& seg : snap->segments) {
    if (seg.data->tree != nullptr) seg.data->tree->reset_stats();
  }
}

namespace {

/// Shared victim predicate of plan_compaction / compaction_debt.
bool is_victim(const SegmentView& seg, const CompactionConfig& cfg) {
  if (seg.rows() == 0) return true;
  const double dead_fraction =
      static_cast<double>(seg.dead_count) / static_cast<double>(seg.rows());
  return dead_fraction > cfg.max_dead_fraction || seg.rows() < cfg.min_segment_points;
}

/// Worst-first victim order: most tombstone-heavy, then smallest.
bool victim_before(const SegmentView& a, const SegmentView& b) {
  const double fa = a.rows() == 0 ? 1.0
                                  : static_cast<double>(a.dead_count) /
                                        static_cast<double>(a.rows());
  const double fb = b.rows() == 0 ? 1.0
                                  : static_cast<double>(b.dead_count) /
                                        static_cast<double>(b.rows());
  if (fa != fb) return fa > fb;
  if (a.rows() != b.rows()) return a.rows() < b.rows();
  return a.segment_id < b.segment_id;
}

}  // namespace

SegmentStore::CompactionPlan SegmentStore::plan_compaction(const CompactionConfig& cfg) const {
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  CompactionPlan plan;
  for (const SegmentView& seg : segments_) {
    if (is_victim(seg, cfg)) plan.victims.push_back(seg);
  }
  std::sort(plan.victims.begin(), plan.victims.end(), victim_before);
  if (plan.victims.size() > cfg.max_victims) plan.victims.resize(cfg.max_victims);
  // A lone tombstone-free victim is just a small segment with nothing to
  // merge into: rewriting it would produce an identical segment — and
  // because each install publishes an epoch (flushing result caches), a
  // no-progress round would repeat forever.  Checked AFTER the cap: a
  // max_victims=1 config truncating a multi-victim plan down to one clean
  // segment must also land here, not livelock.
  if (plan.victims.size() == 1 && plan.victims[0].dead_count == 0) plan.victims.clear();
  return plan;
}

std::uint64_t SegmentStore::compaction_debt(const CompactionConfig& cfg) const {
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  std::uint64_t live = 0;
  std::uint64_t dead = 0;
  std::size_t victims = 0;
  bool tombstoned = false;
  for (const SegmentView& seg : segments_) {
    if (!is_victim(seg, cfg)) continue;
    ++victims;
    live += seg.live();
    dead += seg.dead_count;
    tombstoned = tombstoned || seg.dead_count > 0;
  }
  if (victims == 1 && !tombstoned) return 0;  // mirror plan_compaction's lone-victim rule
  return live + dead;
}

std::shared_ptr<const SealedSegment> SegmentStore::merge_segments(
    std::span<const SegmentView> victims, const ServeConfig& config) {
  std::vector<PointD> points;
  std::vector<PointId> ids;
  std::size_t total = 0;
  for (const SegmentView& seg : victims) total += seg.live();
  points.reserve(total);
  ids.reserve(total);
  for (const SegmentView& seg : victims) {
    const FlatStore& store = seg.data->store();
    for (const auto& [lo, hi] : *seg.live_runs) {
      for (std::size_t i = lo; i < hi; ++i) {
        points.push_back(store.point(i));
        ids.push_back(store.id(i));
      }
    }
  }
  if (points.empty()) return nullptr;
  return build_segment(points, ids, config);
}

std::uint64_t SegmentStore::mirror_copied_bytes() const {
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  return mirror_copied_bytes_;
}

bool SegmentStore::install_compaction(const CompactionPlan& plan,
                                      std::shared_ptr<const SealedSegment> merged) {
  if (plan.empty()) return false;
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  // Every victim must still be published exactly as planned: same segment
  // and same tombstone bitmap *instance* (erase always swaps in a fresh
  // bitmap, so pointer identity is a complete change detector).  A single
  // mismatch aborts — installing anyway would resurrect points deleted
  // mid-build or double-install a segment.
  std::vector<std::size_t> victim_at;
  victim_at.reserve(plan.victims.size());
  for (const SegmentView& victim : plan.victims) {
    const auto it =
        std::find_if(segments_.begin(), segments_.end(), [&](const SegmentView& seg) {
          return seg.segment_id == victim.segment_id;
        });
    if (it == segments_.end() || it->dead != victim.dead) return false;
    victim_at.push_back(static_cast<std::size_t>(it - segments_.begin()));
  }
  // Bank the victims' traversal counters before they leave the store:
  // tree_stats() folds this base back in, so compaction never shrinks the
  // store's lifetime totals.  (A traversal still running against a held
  // snapshot of a victim can increment after this read and be missed —
  // acceptable for diagnostics.)
  for (const std::size_t i : victim_at) {
    if (segments_[i].data->tree != nullptr) retired_tree_base_ += segments_[i].data->tree->stats();
  }
  std::vector<SegmentView> survivors;
  survivors.reserve(segments_.size());
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    if (std::find(victim_at.begin(), victim_at.end(), i) == victim_at.end()) {
      survivors.push_back(std::move(segments_[i]));
    }
  }
  if (merged != nullptr) {
    survivors.push_back(make_clean_view(std::move(merged), next_segment_id_++));
  }
  segments_ = std::move(survivors);
  store_metrics().compaction_installs.add();
  publish_locked();
  return true;
}

// --- snapshot scoring --------------------------------------------------------

/// Accumulates every live segment's local top-ℓ into per-query candidate
/// pools and merges: min(ℓ, live) of the pooled candidates is the global
/// answer.
void snapshot_top_ell_batch(const ServeSnapshot& snapshot, std::span<const PointD> queries,
                            std::size_t ell, MetricKind kind,
                            std::vector<std::vector<Key>>& out, KernelScratch& scratch) {
  out.resize(queries.size());
  if (snapshot.live_points > 0) {
    for (const PointD& query : queries) require_query_dim(snapshot.dim, query.dim());
  }
  if (ell == 0 || snapshot.live_points == 0) {
    for (auto& keys : out) keys.clear();
    return;
  }

  std::vector<std::vector<Key>> candidates(queries.size());
  std::vector<std::vector<Key>> segment_keys;
  for (const SegmentView& seg : snapshot.segments) {
    if (seg.live() == 0) continue;
    // Skipping dead rows is just a range decomposition, which changes no
    // byte; compaction restores a tombstoned tree segment to the hybrid.
    shard_top_ell_batch(*seg.data, *seg.live_runs, queries, ell, kind, segment_keys, scratch);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      candidates[q].insert(candidates[q].end(), segment_keys[q].begin(), segment_keys[q].end());
    }
  }
  for (std::size_t q = 0; q < queries.size(); ++q) {
    out[q] = top_ell_smallest(std::span<const Key>(candidates[q]), ell);
  }
}

std::vector<Key> snapshot_top_ell(const ServeSnapshot& snapshot, const PointD& query,
                                  std::size_t ell, MetricKind kind) {
  KernelScratch scratch;
  std::vector<std::vector<Key>> out;
  snapshot_top_ell_batch(snapshot, std::span<const PointD>(&query, 1), ell, kind, out,
                         scratch);
  return std::move(out[0]);
}

}  // namespace dknn
