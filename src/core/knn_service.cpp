#include "core/knn_service.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <string>
#include <thread>
#include <tuple>
#include <utility>

#include "obs/metrics.hpp"
#include "serve/compactor.hpp"
#include "support/panic.hpp"

namespace dknn {

// --- the published read-path view --------------------------------------------

/// Everything a query needs, frozen at one publish: the per-machine scoring
/// structures (store snapshots in live mode, the immutable index set in
/// static mode), the payload tables (COW — mutators install fresh maps, so a
/// published table never changes under a reader), and the liveness state
/// (generation + coverage + which stores were reachable) the view was taken
/// at.  Readers hold one of these by shared_ptr for the whole call; nothing
/// in it is ever mutated after publish.
struct KnnService::Snapshot {
  /// Service epoch (sum of per-store epochs) at publish; 0 in static mode.
  std::uint64_t epoch = 0;
  /// Health generation at publish (0 without fault tolerance).  Readers
  /// compare against the live generation: equal means the cached-answer key
  /// (epoch + generation) is still current.
  std::uint64_t generation = 0;
  /// Detected coverage at publish — what cache hits are stamped with.
  Coverage coverage;
  std::size_t machine_count = 0;
  /// Live mode: one coherent snapshot per machine; a slot is null iff its
  /// machine was not Alive at publish (its store is unreachable — the
  /// guarded scoring step reports it missing without probing).
  std::vector<SnapshotPtr> stores;
  /// Static mode: the frozen per-machine indexes (shared, never rebuilt).
  std::shared_ptr<const std::vector<ShardIndex>> indexes;
  /// COW payload tables for classify/regress, aligned with the stores.
  std::vector<std::shared_ptr<const std::unordered_map<PointId, std::uint32_t>>> labels;
  std::vector<std::shared_ptr<const std::unordered_map<PointId, double>>> targets;
  bool has_labels = false;
  bool has_targets = false;
};

/// One waiting query() call in the coalescing seat (leader/follower
/// micro-batching, one seat per service).  Owned by the caller's stack;
/// `done`/`result`/`error` are written by the leader and read by the owner,
/// both under seat_mutex.
struct KnnService::SeatSlot {
  const PointD* query = nullptr;
  KnnAlgo algo{};
  std::uint64_t ell = 0;
  MetricKind metric{};
  QueryResult result;
  std::exception_ptr error;
  bool done = false;
  /// This query's trace (null = untraced).  The leader writes batch-stage
  /// spans through it strictly before marking `done` under seat_mutex, so
  /// the owner's reads are ordered by the publish that hands the answer
  /// back (see obs/trace.hpp's ownership rule).
  obs::TraceBuilder* trace = nullptr;
  /// Seat enqueue time (0 = untimed) — execute_seat turns it into the
  /// seat-wait histogram sample and the traced seat_wait span.
  std::uint64_t enqueue_ns = 0;
};

// --- State -------------------------------------------------------------------

struct KnnService::State {
  ServiceConfig config;
  std::size_t dim = 0;  ///< 0 = unknown (empty static dataset)

  // Static mode: each machine's frozen scoring structures (shared with
  // every published Snapshot; immutable after build).
  std::shared_ptr<const std::vector<ShardIndex>> indexes;
  // Live mode: each machine's mutable store.
  std::vector<std::unique_ptr<SegmentStore>> stores;
  std::uint64_t next_machine = 0;  ///< round-robin insert routing

  // id → payload per machine, shared by both modes (a live store's
  // membership churns, so positional arrays cannot label it).  Copy-on-
  // write: a published Snapshot shares these maps, so mutators never edit
  // one in place — they clone, edit the clone, and swap the pointer.
  bool has_labels = false;
  bool has_targets = false;
  std::vector<std::shared_ptr<const std::unordered_map<PointId, std::uint32_t>>> labels;
  std::vector<std::shared_ptr<const std::unordered_map<PointId, double>>> targets;

  // Fault-tolerant mode only: the liveness registry gating every scoring
  // step, the recovery mirror (live mode — what re-shards a dead machine's
  // points; doubles point memory, the price of single-copy ownership in
  // the k-machine model), and erases issued while their owner was dead
  // (applied if the machine revives; recovery consults the mirror, which
  // already excludes them — deletes never resurrect either way).
  std::unique_ptr<MachineHealth> health;
  std::unique_ptr<ReplicaMirror> mirror;
  std::vector<std::vector<PointId>> pending_erases;

  EpochResultCache cache;
  std::atomic<std::uint64_t> queries{0};
  std::atomic<std::uint64_t> batches{0};

  /// Per-query trace sampling gate + recent-trace ring (obs/trace.hpp).
  obs::Tracer tracer;

  // The *mutation* mutex: insert / erase / compact installs / kill /
  // revive / recover (and the bookkeeping readers over the mutable mirror)
  // serialize here.  The query paths never touch it — they read the
  // published snapshot below.
  std::mutex mutex;

  // The read-path snapshot, swapped under a leaf mutex (not
  // std::atomic<shared_ptr>: TSan can't see through libstdc++'s _Sp_atomic,
  // and a leaf mutex held for one pointer copy costs the same — the exact
  // convention SegmentStore::snapshot() uses).
  mutable std::mutex snapshot_mutex;
  std::shared_ptr<const Snapshot> snapshot;

  // query()'s coalescing seat (one per service).
  std::mutex seat_mutex;
  std::condition_variable seat_cv;   ///< arrivals, completions, leader hand-off
  std::vector<SeatSlot*> seat_queue; ///< guarded by seat_mutex
  bool seat_leader_active = false;   ///< guarded by seat_mutex

  // Service-owned scoring pool (null when scoring is serial or the caller
  // supplied an external pool); `scoring` is config.scoring with the pool
  // wired in.
  std::unique_ptr<ThreadPool> pool;
  BatchScoringConfig scoring;

  // Background compactors (live mode with an owned pool), one per store.
  // Declared after `pool` so they destroy first: each drains its in-flight
  // round (whose completion hook takes `mutex` and republishes) before the
  // pool — or anything the hook touches — goes away.
  std::vector<std::unique_ptr<Compactor>> compactors;

  State(std::size_t cache_capacity, std::uint64_t trace_sample_every, std::size_t trace_capacity)
      : cache(cache_capacity), tracer(trace_sample_every, trace_capacity) {}

  [[nodiscard]] std::size_t machine_count() const {
    if (config.live) return stores.size();
    return indexes != nullptr ? indexes->size() : 0;
  }

  /// The strictly monotone service epoch (sum of per-store epochs; each
  /// store's epoch never decreases and every mutation bumps one, so equal
  /// sums imply an identical store state).
  [[nodiscard]] std::uint64_t epoch() const {
    std::uint64_t sum = 0;
    for (const auto& store : stores) sum += store->epoch();
    return sum;
  }
};

namespace {

/// One locked pointer copy of the published snapshot (templated so the
/// helper needn't name the private Snapshot type).
template <typename SnapPtr>
[[nodiscard]] SnapPtr load_published(std::mutex& mutex, const SnapPtr& slot) {
  const std::lock_guard<std::mutex> lock(mutex);
  return slot;
}

/// COW-erase `id` from one machine's payload table (no-op when absent).
template <typename Value>
void erase_payload(std::vector<std::shared_ptr<const std::unordered_map<PointId, Value>>>& tables,
                   std::size_t machine, PointId id) {
  if (tables[machine]->count(id) == 0) return;
  auto next = std::make_shared<std::unordered_map<PointId, Value>>(*tables[machine]);
  next->erase(id);
  tables[machine] = std::move(next);
}

/// Facade metrics (obs/metrics.hpp), process-wide across services.  The
/// query/hit/miss counters move together in count_answers, so
/// hits + misses == queries holds by construction at every quiescent read
/// (the invariant bench/check_metrics_schema.py asserts).
struct ServiceMetrics {
  obs::Counter& queries = obs::registry().counter(
      "dknn_service_queries_total", "answers produced by any KnnService entry point");
  obs::Counter& batches = obs::registry().counter(
      "dknn_service_batches_total", "scoring+protocol runs executed by the facade");
  obs::Counter& cache_hits = obs::registry().counter(
      "dknn_service_cache_hits_total", "facade answers served from the epoch result cache");
  obs::Counter& cache_misses = obs::registry().counter(
      "dknn_service_cache_misses_total", "facade answers that ran scoring + selection");
  obs::Counter& epoch_publishes = obs::registry().counter(
      "dknn_service_epoch_publishes_total", "read-path snapshot publishes (mutations, installs)");
  obs::Histogram& query_latency = obs::registry().histogram(
      "dknn_service_query_latency_ns", "query() entry to answer, seat wait included");
  obs::Histogram& query_seat_wait = obs::registry().histogram(
      "dknn_service_seat_wait_ns", "seat enqueue -> batch execution start, per coalesced query");
  obs::Histogram& coalesce_batch_size = obs::registry().histogram(
      "dknn_service_coalesce_batch_size", "queries per coalescing-seat execute");
};

ServiceMetrics& service_metrics() {
  static ServiceMetrics m;
  return m;
}

/// The facade ledger, moved once per answered batch of any entry point:
/// ServiceStats' counters and the registry's move together, so their deltas
/// agree.  `misses` counts the answers that were scored (cache misses and
/// cache-bypass answers alike); `scored` says whether a scoring+protocol
/// run happened.  Templated so the helper needn't name the private State.
template <typename ServiceState>
void count_answers(ServiceState& state, std::size_t answers, std::size_t misses, bool scored) {
  ServiceMetrics& metrics = service_metrics();
  if (scored) {
    state.batches.fetch_add(1, std::memory_order_relaxed);
    metrics.batches.add();
  }
  state.queries.fetch_add(answers, std::memory_order_relaxed);
  metrics.queries.add(answers);
  metrics.cache_misses.add(misses);
  metrics.cache_hits.add(answers - misses);
}

}  // namespace

void KnnService::publish_locked(State& state) {
  auto snap = std::make_shared<Snapshot>();
  snap->machine_count = state.machine_count();
  snap->indexes = state.indexes;
  snap->has_labels = state.has_labels;
  snap->has_targets = state.has_targets;
  snap->labels = state.labels;
  snap->targets = state.targets;
  snap->epoch = state.epoch();
  std::vector<char> alive;
  if (state.health != nullptr) {
    // One view() read keeps generation / coverage / alive-mask coherent —
    // a concurrent probe detection between separate reads could publish a
    // generation that disagrees with the store set.
    LivenessView view = state.health->view();
    snap->generation = view.generation;
    snap->coverage = std::move(view.coverage);
    alive = std::move(view.alive);
  } else {
    snap->coverage.total = static_cast<std::uint32_t>(snap->machine_count);
  }
  if (state.config.live) {
    snap->stores.reserve(state.stores.size());
    for (std::size_t m = 0; m < state.stores.size(); ++m) {
      const bool reachable = state.health == nullptr || (m < alive.size() && alive[m] != 0);
      snap->stores.push_back(reachable ? state.stores[m]->snapshot() : nullptr);
    }
  }
  {
    const std::lock_guard<std::mutex> lock(state.snapshot_mutex);
    state.snapshot = std::move(snap);
  }
  service_metrics().epoch_publishes.add();
}

// --- lifecycle ---------------------------------------------------------------

KnnService::KnnService() = default;
KnnService::KnnService(std::unique_ptr<State> state) : state_(std::move(state)) {}
KnnService::KnnService(KnnService&&) noexcept = default;
KnnService& KnnService::operator=(KnnService&&) noexcept = default;
KnnService::~KnnService() = default;

KnnService::State& KnnService::ensure_built() const {
  if (state_ == nullptr) throw ServiceStateError("dknn: KnnService used before build()");
  return *state_;
}

KnnService::State& KnnService::ensure_live() const {
  State& state = ensure_built();
  if (!state.config.live) {
    throw ServiceStateError(
        "dknn: live-serving call on a static-mode KnnService (build with "
        "KnnServiceBuilder::live)");
  }
  return state;
}

bool KnnService::live() const { return ensure_built().config.live; }
const ServiceConfig& KnnService::config() const { return ensure_built().config; }
std::size_t KnnService::dim() const { return ensure_built().dim; }
std::size_t KnnService::machines() const { return ensure_built().machine_count(); }

std::size_t KnnService::total_points() const {
  State& state = ensure_built();
  const std::lock_guard<std::mutex> lock(state.mutex);
  std::size_t total = 0;
  if (state.config.live) {
    // The mirror is authoritative in fault-tolerant mode: a dead machine's
    // store still holds its points (and pending erases), so summing stores
    // would double-count after recovery re-homes them.
    if (state.mirror != nullptr) return state.mirror->total_points();
    for (const auto& store : state.stores) total += store->live_points();
  } else {
    if (state.indexes != nullptr) {
      for (const ShardIndex& index : *state.indexes) total += index.store().size();
    }
  }
  return total;
}

// --- queries -----------------------------------------------------------------

namespace {

void validate_query_dims(std::size_t dim, std::span<const PointD> queries) {
  // dim == 0 means the dataset is empty and dimension-free; every scoring
  // path then returns empty keys for any query (mirrors the kernels).
  if (dim == 0) return;
  for (const PointD& query : queries) require_query_dim(dim, query.dim());
}

}  // namespace

std::vector<std::vector<std::vector<Key>>> KnnService::score_step(
    State& state, const Snapshot& snap, std::span<const PointD> queries, std::uint64_t ell,
    MetricKind metric, const obs::TraceSink& sink, Coverage& coverage) {
  obs::SinkScope span(sink, "shard_scoring");
  span.set_detail(snap.machine_count);

  coverage = snap.coverage;
  std::vector<char> skip;
  if (state.health != nullptr) {
    // Dead / unresponsive machines are skipped (their slots stay empty, a
    // legal empty shard for every protocol) and reported in the coverage.
    // The live probe is reconciled with the liveness `snap` was published
    // under; a null store slot marks a machine unreachable at publish.
    std::vector<char> present(snap.stores.size());
    for (std::size_t m = 0; m < snap.stores.size(); ++m) present[m] = snap.stores[m] != nullptr;
    MachineProbe probe = snapshot_probe(probe_machines(*state.health), snap.coverage, present);
    skip = std::move(probe.skip);
    coverage = std::move(probe.coverage);
  }
  return state.config.live ? score_serve_snapshots_batch(snap.stores, queries, ell, metric,
                                                         state.scoring, skip)
                           : score_vector_shards_batch(*snap.indexes, queries, ell, metric,
                                                       state.scoring, skip);
}

BatchQueryResult KnnService::run_batch_core(State& state,
                                            const std::shared_ptr<const Snapshot>& snap,
                                            std::span<const PointD> queries, KnnAlgo algo,
                                            std::uint64_t ell, MetricKind metric,
                                            const obs::TraceSink& sink) {
  BatchQueryResult out;
  out.epoch = snap->epoch;
  out.per_query.resize(queries.size());
  const auto batch_size = static_cast<std::uint32_t>(queries.size());
  const bool fault_tolerant = state.health != nullptr;

  // Caching gate.  The key is (coord bits, ℓ, metric, epoch + generation);
  // both epoch and generation are monotone, so equal sums imply an
  // identical (data, liveness) state — a hit is byte-exact.  The snapshot
  // pins the data epoch; the generation can still move under us (a probe
  // detection needs no mutation), so caching is active only while the live
  // generation equals the snapshot's.  A stale window (detection not yet
  // republished) bypasses the cache entirely — scored answers still come
  // out right (the guard skips the dead machine), they just aren't cached,
  // and note_bypass keeps the miss counter reconciled.
  const std::uint64_t live_generation = fault_tolerant ? state.health->generation() : 0;
  const bool generation_stable = live_generation == snap->generation;
  const bool caching = state.cache.capacity() > 0 && generation_stable;
  const std::uint64_t cache_epoch = snap->epoch + live_generation;
  // What cache hits are stamped with: the publish-time detected coverage —
  // the generation key guarantees it equals the entry's compute-time state.
  const Coverage& hit_coverage = snap->coverage;

  std::vector<std::size_t> miss_index;
  std::vector<PointD> miss_queries;
  std::vector<std::vector<std::uint64_t>> miss_bits;
  {
    obs::SinkScope span(sink, "cache_lookup");
    if (!caching) {
      miss_index.reserve(queries.size());
      miss_queries.reserve(queries.size());
      for (std::size_t q = 0; q < queries.size(); ++q) {
        miss_index.push_back(q);
        miss_queries.push_back(queries[q]);
      }
      state.cache.note_bypass(queries.size());
    } else {
      for (std::size_t q = 0; q < queries.size(); ++q) {
        auto bits = query_coord_bits(queries[q]);
        // Per-call ℓ/metric ride in the key as extra words, so an
        // overridden answer can never collide with a canonical one.
        bits.push_back(ell);
        bits.push_back(static_cast<std::uint64_t>(metric));
        if (auto cached = state.cache.lookup(bits, cache_epoch); cached.has_value()) {
          QueryResult& dst = out.per_query[q];
          dst.keys = std::move(*cached);
          dst.epoch = snap->epoch;
          dst.cache_hit = true;
          dst.coverage = hit_coverage;
        } else {
          miss_index.push_back(q);
          miss_queries.push_back(queries[q]);
          miss_bits.push_back(std::move(bits));
        }
      }
    }
    span.set_detail(queries.size() - miss_index.size());  // cache hits
  }

  if (!miss_queries.empty()) {
    Coverage miss_coverage;
    const auto scored = score_step(state, *snap, miss_queries, ell, metric, sink, miss_coverage);
    // Global selection: every miss through one engine run.
    BatchRunResult batch = [&] {
      obs::SinkScope span(sink, "selection");
      span.set_detail(miss_queries.size());
      return run_knn_batch(scored, ell, algo, state.config.engine, state.config.knn);
    }();

    // Publish to the cache only if the generation held through scoring —
    // answers computed while a detection landed belong to neither liveness
    // state's key.  After any detection, opportunistically republish the
    // snapshot (try_lock: a mutator holding the mutex will republish
    // itself) so later reads see the new liveness and caching resumes.
    bool publish = caching;
    if (fault_tolerant) {
      const std::uint64_t post_generation = state.health->generation();
      publish = caching && post_generation == live_generation;
      if (post_generation != snap->generation && state.mutex.try_lock()) {
        publish_locked(state);
        state.mutex.unlock();
      }
    }
    obs::SinkScope span(sink, "merge");
    if (publish) state.cache.make_room(miss_index.size(), cache_epoch);
    for (std::size_t i = 0; i < miss_index.size(); ++i) {
      QueryResult& dst = out.per_query[miss_index[i]];
      GlobalRunResult& src = batch.per_query[i];
      dst.keys = std::move(src.keys);
      dst.report = std::move(src.report);
      dst.iterations = src.iterations;
      dst.attempts = src.attempts;
      dst.candidates = src.candidates;
      dst.prune_ok = src.prune_ok;
      dst.epoch = snap->epoch;
      dst.cache_hit = false;
      dst.coverage = miss_coverage;
      if (publish) state.cache.insert(std::move(miss_bits[i]), cache_epoch, dst.keys);
    }
    out.report = std::move(batch.report);
  }

  for (QueryResult& result : out.per_query) result.batch_size = batch_size;
  count_answers(state, queries.size(), miss_index.size(), !miss_queries.empty());
  return out;
}

BatchQueryResult KnnService::query_batch(std::span<const PointD> queries,
                                         const QueryOptions& options) {
  State& state = ensure_built();
  const std::uint64_t ell = options.ell.value_or(state.config.ell);
  require_positive_ell(ell);
  const KnnAlgo algo = options.algo.value_or(state.config.algo);
  const MetricKind metric = options.metric.value_or(state.config.metric);
  validate_query_dims(state.dim, queries);
  const auto snap = load_published(state.snapshot_mutex, state.snapshot);
  if (queries.empty()) {
    // Before the trace gate: an empty batch answers nothing, so it must
    // neither consume a sampling slot nor swallow a forced trace.
    BatchQueryResult out;
    out.epoch = snap->epoch;
    return out;
  }
  // The whole batch traces as one unit when forced or sampled (it is one
  // snapshot + one scored run; per-member spans would all be identical).
  auto trace = state.tracer.begin(options.trace);
  obs::TraceSink sink;
  sink.attach(trace.get());
  BatchQueryResult out = run_batch_core(state, snap, queries, algo, ell, metric, sink);
  if (trace != nullptr) state.tracer.finish(std::move(trace));
  return out;
}

void KnnService::execute_seat(State& state, std::span<SeatSlot*> batch) {
  // Seat-batch observability: the effective coalesced size, each timed
  // member's queue wait, and (for traced members) the batch-wide stage
  // spans fanned through a TraceSink.
  if (obs::registry().enabled()) {
    service_metrics().coalesce_batch_size.record(batch.size());
    const std::uint64_t start_ns = obs::now_ns();
    for (const SeatSlot* slot : batch) {
      if (slot->enqueue_ns != 0) {
        service_metrics().query_seat_wait.record(start_ns - slot->enqueue_ns);
      }
    }
  }
  obs::TraceSink batch_sink;
  for (SeatSlot* slot : batch) batch_sink.attach(slot->trace);
  if (!batch_sink.empty()) {
    const std::uint64_t now = obs::now_ns();
    for (SeatSlot* slot : batch) {
      if (slot->trace != nullptr && slot->enqueue_ns != 0) {
        slot->trace->add_span("seat_wait", slot->enqueue_ns, now - slot->enqueue_ns,
                              batch.size());
      }
    }
  }

  // One snapshot for the whole seat batch; group batch-mates by effective
  // (algo, ℓ, metric) — per-call overrides may differ across coalesced
  // callers, and each group is one scored batch.
  const auto snap = [&] {
    obs::SinkScope span(batch_sink, "snapshot_acquire");
    return load_published(state.snapshot_mutex, state.snapshot);
  }();
  std::vector<std::size_t> order(batch.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const auto key_of = [&](std::size_t i) {
    return std::make_tuple(static_cast<int>(batch[i]->algo), batch[i]->ell,
                           static_cast<int>(batch[i]->metric));
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return key_of(a) < key_of(b); });
  std::size_t start = 0;
  while (start < order.size()) {
    std::size_t stop = start + 1;
    while (stop < order.size() && key_of(order[stop]) == key_of(order[start])) ++stop;
    std::vector<PointD> queries;
    queries.reserve(stop - start);
    for (std::size_t i = start; i < stop; ++i) queries.push_back(*batch[order[i]]->query);
    SeatSlot& lead = *batch[order[start]];
    // Stage spans fan to this group's traced members only — batch-mates in
    // other (algo, ℓ, metric) groups ran their stages separately.
    obs::TraceSink group_sink;
    for (std::size_t i = start; i < stop; ++i) group_sink.attach(batch[order[i]]->trace);
    try {
      BatchQueryResult result =
          run_batch_core(state, snap, queries, lead.algo, lead.ell, lead.metric, group_sink);
      for (std::size_t i = start; i < stop; ++i) {
        batch[order[i]]->result = std::move(result.per_query[i - start]);
      }
      if (stop - start == 1 && !lead.result.cache_hit) {
        // A lone, uncoalesced query owns its whole run: give it the
        // complete engine report (traffic included).  A coalesced group's
        // whole-batch report belongs to no single caller and is dropped.
        lead.result.report = std::move(result.report);
      }
    } catch (...) {
      // A group that fails (bad_alloc mid-kernel, ...) fails only its own
      // members; other groups still answer.
      for (std::size_t i = start; i < stop; ++i) {
        batch[order[i]]->error = std::current_exception();
      }
    }
    start = stop;
  }
}

QueryResult KnnService::query(const PointD& point, const QueryOptions& options) {
  State& state = ensure_built();
  const std::uint64_t ell = options.ell.value_or(state.config.ell);
  require_positive_ell(ell);
  // Validate before taking a seat: precondition errors stay the caller's
  // own (a throw from inside the scored batch would have to fan out to
  // every batch-mate).
  validate_query_dims(state.dim, std::span<const PointD>(&point, 1));

  SeatSlot slot;
  slot.query = &point;
  slot.algo = options.algo.value_or(state.config.algo);
  slot.ell = ell;
  slot.metric = options.metric.value_or(state.config.metric);
  // Observability: one branch each when disabled/unsampled.  The trace
  // builder rides the slot so the seat leader can fan batch-stage spans
  // into it; neither changes any answer byte.
  auto trace = state.tracer.begin(options.trace);
  slot.trace = trace.get();
  const bool timed = obs::registry().enabled();
  if (timed || trace != nullptr) slot.enqueue_ns = obs::now_ns();

  std::unique_lock<std::mutex> lock(state.seat_mutex);
  state.seat_queue.push_back(&slot);
  state.seat_cv.notify_all();  // a collecting leader may be waiting for company
  for (;;) {
    if (slot.done) break;
    if (!state.seat_leader_active) break;  // seat is free and our slot is still queued
    state.seat_cv.wait(lock);
  }
  if (!slot.done) {
    // Leader: collect companions up to coalesce_max_batch or the deadline,
    // then score the whole batch outside the lock.
    state.seat_leader_active = true;
    if (state.config.coalesce_max_delay.count() > 0) {
      const auto deadline = std::chrono::steady_clock::now() + state.config.coalesce_max_delay;
      while (state.seat_queue.size() < state.config.coalesce_max_batch &&
             state.seat_cv.wait_until(lock, deadline) != std::cv_status::timeout) {
      }
    }
    // Take at most coalesce_max_batch slots: an arrival storm while the
    // seat was occupied can queue more.  The leader's own slot always
    // rides in its batch (it returns after this one execute), joined by
    // the oldest queued companions; the remainder stays queued — one of
    // its owners is elected leader by the post-publish notify_all below.
    state.seat_queue.erase(std::find(state.seat_queue.begin(), state.seat_queue.end(), &slot));
    const std::size_t take =
        std::min(state.seat_queue.size(), state.config.coalesce_max_batch - 1);
    std::vector<SeatSlot*> batch(
        state.seat_queue.begin(),
        state.seat_queue.begin() + static_cast<std::ptrdiff_t>(take));
    state.seat_queue.erase(state.seat_queue.begin(),
                           state.seat_queue.begin() + static_cast<std::ptrdiff_t>(take));
    batch.push_back(&slot);
    lock.unlock();
    execute_seat(state, batch);
    lock.lock();
    // Publish results under the lock (followers read `done` + `result`
    // under it), retire the seat, wake everyone: batch members return,
    // queries that arrived mid-execute elect the next leader.
    for (SeatSlot* member : batch) member->done = true;
    state.seat_leader_active = false;
    state.seat_cv.notify_all();
  }
  lock.unlock();
  if (timed && slot.enqueue_ns != 0) {
    service_metrics().query_latency.record(obs::now_ns() - slot.enqueue_ns);
  }
  if (trace != nullptr) state.tracer.finish(std::move(trace));
  if (slot.error != nullptr) std::rethrow_exception(slot.error);
  return std::move(slot.result);
}

template <typename Result, typename Vote>
std::vector<Result> KnnService::predict_batch(std::span<const PointD> queries, bool targets,
                                              const Vote& vote) {
  State& state = ensure_built();
  const auto snap = load_published(state.snapshot_mutex, state.snapshot);
  if (targets ? !snap->has_targets : !snap->has_labels) {
    throw ServiceStateError(
        targets ? "dknn: KnnService::regress requires targets (KnnServiceBuilder::targets or "
                  "insert_target)"
                : "dknn: KnnService::classify requires labels (KnnServiceBuilder::labels or "
                  "insert_labeled)");
  }
  if (queries.empty()) return {};  // consistent with query_batch
  validate_query_dims(state.dim, queries);

  // One snapshot end to end: the winners come out of the snapshotted
  // stores and the payloads are the tables published with them, so a
  // concurrent erase can never strand a winner without its label.  A
  // degraded (fault-tolerant) step drops dead machines' shards out of the
  // vote, exactly as it drops them out of query_batch's answer.
  Coverage coverage;
  const auto scored = score_step(state, *snap, queries, state.config.ell, state.config.metric,
                                 obs::TraceSink{}, coverage);
  std::vector<Result> results = vote(scored, *snap);
  // Payload answers never consult the cache: they count as cache-bypass
  // answers, which keeps hits + misses == queries across entry points.
  state.cache.note_bypass(queries.size());
  count_answers(state, queries.size(), queries.size(), /*scored=*/true);
  return results;
}

std::vector<ClassifyResult> KnnService::classify_batch(std::span<const PointD> queries,
                                                       VoteRule rule) {
  const ServiceConfig& config = ensure_built().config;
  return predict_batch<ClassifyResult>(
      queries, /*targets=*/false, [&](const auto& scored, const Snapshot& snap) {
        return classify_scored_batch(scored, snap.labels, config.ell, config.engine, config.knn,
                                     rule);
      });
}

ClassifyResult KnnService::classify(const PointD& point, VoteRule rule) {
  return std::move(classify_batch(std::span<const PointD>(&point, 1), rule).front());
}

std::vector<RegressResult> KnnService::regress_batch(std::span<const PointD> queries) {
  const ServiceConfig& config = ensure_built().config;
  return predict_batch<RegressResult>(
      queries, /*targets=*/true, [&](const auto& scored, const Snapshot& snap) {
        return regress_scored_batch(scored, snap.targets, config.ell, config.engine, config.knn);
      });
}

RegressResult KnnService::regress(const PointD& point) {
  return std::move(regress_batch(std::span<const PointD>(&point, 1)).front());
}

ServiceStats KnnService::stats() const {
  State& state = ensure_built();
  // Lock-free counters: the query counters are atomics and the cache keeps
  // its own leaf-locked counters.  A quiescent service reconciles exactly
  // (hits + misses == query/query_batch answers at every cache
  // configuration — see the stats convention in result_cache.hpp); a read
  // taken while batches are in flight can lag by the in-flight answers.
  const ResultCacheStats cache = state.cache.stats();
  ServiceStats stats;
  stats.queries = state.queries.load(std::memory_order_relaxed);
  stats.batches = state.batches.load(std::memory_order_relaxed);
  stats.cache_hits = cache.hits;
  stats.cache_misses = cache.misses;
  stats.cache_flushes = cache.flushes;
  // Tree traversal counters are owned by the per-shard KdRangeIndexes /
  // per-segment trees themselves (relaxed atomics), so no service lock is
  // needed to read them either.
  if (state.config.live) {
    for (const auto& store : state.stores) stats.tree += store->tree_stats();
  } else if (state.indexes != nullptr) {
    stats.tree += tree_stats(*state.indexes);
  }
  return stats;
}

// --- observability -----------------------------------------------------------

std::string KnnService::metrics_text() const {
  (void)ensure_built();
  return obs::registry().prometheus_text();
}

std::string KnnService::metrics_json() const {
  (void)ensure_built();
  return obs::registry().json_text();
}

std::vector<obs::QueryTrace> KnnService::recent_traces() const {
  return ensure_built().tracer.recent();
}

void KnnService::set_trace_sampling(std::uint64_t sample_every) {
  ensure_built().tracer.set_sample_every(sample_every);
}

// --- live-serving surface ----------------------------------------------------

std::size_t KnnService::insert_point(State& state, const PointD& point, PointId id) {
  require_query_dim(state.dim, point.dim());
  if (state.mirror != nullptr) {
    // Fault-tolerant routing: the mirror answers membership in O(1) (a
    // dead machine's store cannot be probed), and dead machines are
    // skipped — the next alive machine in round-robin order takes the
    // point.  All machines down = typed failure, not a hang.
    if (state.mirror->contains(id)) {
      throw PreconditionError("dknn: insert: id " + std::to_string(id) + " is already live");
    }
    const std::size_t k = state.stores.size();
    for (std::size_t tries = 0; tries < k; ++tries) {
      const std::size_t machine = state.next_machine++ % k;
      if (!state.health->alive(machine)) continue;
      state.stores[machine]->insert(point, id);
      state.mirror->record(machine, ReplicaRecord{point, id, std::nullopt, std::nullopt});
      return machine;
    }
    throw NoLiveMachinesError("dknn: insert: every machine is dead");
  }
  for (const auto& store : state.stores) {
    if (store->contains(id)) {
      throw PreconditionError("dknn: insert: id " + std::to_string(id) + " is already live");
    }
  }
  const std::size_t machine = state.next_machine++ % state.stores.size();
  state.stores[machine]->insert(point, id);
  return machine;
}

std::uint64_t KnnService::insert(const PointD& point, PointId id) {
  State& state = ensure_live();
  const std::lock_guard<std::mutex> lock(state.mutex);
  insert_point(state, point, id);
  publish_locked(state);
  return state.epoch();
}

std::uint64_t KnnService::insert_labeled(const PointD& point, PointId id, std::uint32_t label) {
  State& state = ensure_live();
  const std::lock_guard<std::mutex> lock(state.mutex);
  const std::size_t machine = insert_point(state, point, id);
  // COW: published snapshots share the old table; clone, edit, swap.
  auto next =
      std::make_shared<std::unordered_map<PointId, std::uint32_t>>(*state.labels[machine]);
  (*next)[id] = label;
  state.labels[machine] = std::move(next);
  state.has_labels = true;
  if (state.mirror != nullptr) {
    state.mirror->record(machine, ReplicaRecord{point, id, label, std::nullopt});
  }
  publish_locked(state);
  return state.epoch();
}

std::uint64_t KnnService::insert_target(const PointD& point, PointId id, double target) {
  State& state = ensure_live();
  const std::lock_guard<std::mutex> lock(state.mutex);
  const std::size_t machine = insert_point(state, point, id);
  auto next = std::make_shared<std::unordered_map<PointId, double>>(*state.targets[machine]);
  (*next)[id] = target;
  state.targets[machine] = std::move(next);
  state.has_targets = true;
  if (state.mirror != nullptr) {
    state.mirror->record(machine, ReplicaRecord{point, id, std::nullopt, target});
  }
  publish_locked(state);
  return state.epoch();
}

std::optional<std::uint64_t> KnnService::erase(PointId id) {
  State& state = ensure_live();
  const std::lock_guard<std::mutex> lock(state.mutex);
  if (state.mirror != nullptr) {
    const std::optional<std::size_t> owner = state.mirror->machine_of(id);
    if (!owner.has_value()) return std::nullopt;
    const std::size_t m = *owner;
    state.mirror->erase(id);
    erase_payload(state.labels, m, id);
    erase_payload(state.targets, m, id);
    if (state.health->alive(m)) {
      const bool erased = state.stores[m]->erase(id).has_value();
      DKNN_ASSERT(erased, "fault-tolerant erase: mirror and store disagree");
    } else {
      // The owner is down: the membership change takes effect now (the
      // mirror is authoritative), the store applies it on revive; recovery
      // reads the mirror, so either way the delete never resurrects.  The
      // data epoch does not advance — a dead machine's points are already
      // absent from every answer.
      state.pending_erases[m].push_back(id);
    }
    publish_locked(state);
    return state.epoch();
  }
  for (std::size_t m = 0; m < state.stores.size(); ++m) {
    if (state.stores[m]->erase(id).has_value()) {
      erase_payload(state.labels, m, id);
      erase_payload(state.targets, m, id);
      publish_locked(state);
      return state.epoch();
    }
  }
  return std::nullopt;
}

namespace {

/// One inline compaction round on `store`: plan, merge the frozen victims,
/// install conditionally on victim identity.  nullopt when the store has
/// nothing worth compacting; otherwise whether the install landed (false =
/// a racing erase tombstoned a victim mid-merge, so the round aborted).
std::optional<bool> compact_round(SegmentStore& store, const ServiceConfig& config) {
  const SegmentStore::CompactionPlan plan = store.plan_compaction(config.compaction);
  if (plan.empty()) return std::nullopt;
  auto merged = SegmentStore::merge_segments(plan.victims, store.config());
  return store.install_compaction(plan, std::move(merged));
}

}  // namespace

std::uint64_t KnnService::compact_now() {
  State& state = ensure_live();
  // No service mutex while planning or merging: merges read only frozen
  // views, and installs are conditional on victim identity.  A racing
  // erase that tombstones a victim between plan and install aborts the
  // round (deletes always win) and we simply re-plan; the abort cap bounds
  // the pathological case of a saturating erase storm — the leftover debt
  // just waits for the next call.
  for (const auto& store : state.stores) {
    std::size_t consecutive_aborts = 0;
    while (consecutive_aborts < 8) {
      const std::optional<bool> installed = compact_round(*store, state.config);
      if (!installed.has_value()) break;
      consecutive_aborts = *installed ? 0 : consecutive_aborts + 1;
    }
  }
  const std::lock_guard<std::mutex> lock(state.mutex);
  publish_locked(state);
  return state.epoch();
}

std::size_t KnnService::maybe_compact() {
  State& state = ensure_live();
  if (!state.compactors.empty()) {
    std::size_t scheduled = 0;
    for (const auto& compactor : state.compactors) {
      if (compactor->maybe_schedule()) ++scheduled;
    }
    return scheduled;
  }
  // No owned pool (serial scoring config): one inline round per indebted
  // store — the same conditional-install discipline, synchronously.
  std::size_t rounds = 0;
  for (const auto& store : state.stores) {
    if (compact_round(*store, state.config).has_value()) ++rounds;
  }
  if (rounds > 0) {
    const std::lock_guard<std::mutex> lock(state.mutex);
    publish_locked(state);
  }
  return rounds;
}

std::uint64_t KnnService::snapshot_epoch() const {
  State& state = ensure_built();
  return load_published(state.snapshot_mutex, state.snapshot)->epoch;
}

bool KnnService::contains(PointId id) const {
  State& state = ensure_live();
  const std::lock_guard<std::mutex> lock(state.mutex);
  if (state.mirror != nullptr) return state.mirror->contains(id);
  for (const auto& store : state.stores) {
    if (store->contains(id)) return true;
  }
  return false;
}

std::vector<PointId> KnnService::live_ids() const {
  State& state = ensure_live();
  const std::lock_guard<std::mutex> lock(state.mutex);
  if (state.mirror != nullptr) return state.mirror->ids();
  std::vector<PointId> ids;
  for (const auto& store : state.stores) {
    const SnapshotPtr snapshot = store->snapshot();
    for (const SegmentView& segment : snapshot->segments) {
      const std::span<const PointId> rows = segment.data->store().ids();
      for (const auto& [lo, hi] : *segment.live_runs) {
        ids.insert(ids.end(), rows.begin() + lo, rows.begin() + hi);
      }
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::size_t KnnService::segment_count() const {
  State& state = ensure_built();
  const std::lock_guard<std::mutex> lock(state.mutex);
  std::size_t count = 0;
  for (const auto& store : state.stores) count += store->segment_count();
  return count;
}

std::uint64_t KnnService::compaction_debt() const {
  State& state = ensure_built();
  const std::lock_guard<std::mutex> lock(state.mutex);
  std::uint64_t debt = 0;
  for (const auto& store : state.stores) debt += store->compaction_debt(state.config.compaction);
  return debt;
}

// --- fault tolerance ---------------------------------------------------------

KnnService::State& KnnService::ensure_fault_tolerant() const {
  State& state = ensure_built();
  if (state.health == nullptr) {
    throw ServiceStateError(
        "dknn: fault-tolerance call on a service built without it (build with "
        "KnnServiceBuilder::fault_tolerant)");
  }
  return state;
}

bool KnnService::fault_tolerant() const { return ensure_built().health != nullptr; }

const MachineHealth& KnnService::health() const { return *ensure_fault_tolerant().health; }

void KnnService::kill_machine(std::size_t machine) {
  State& state = ensure_fault_tolerant();
  const std::lock_guard<std::mutex> lock(state.mutex);
  state.health->kill(machine);
  publish_locked(state);
}

void KnnService::revive_machine(std::size_t machine) {
  State& state = ensure_fault_tolerant();
  const std::lock_guard<std::mutex> lock(state.mutex);
  // Deletes issued while the machine was down take effect in its store
  // before it rejoins — a revived machine never resurrects an erased point.
  if (state.config.live && machine < state.pending_erases.size()) {
    for (const PointId id : state.pending_erases[machine]) state.stores[machine]->erase(id);
    state.pending_erases[machine].clear();
  }
  state.health->revive(machine);
  publish_locked(state);
}

void KnnService::set_failure_mode(std::size_t machine, FailureMode mode) {
  State& state = ensure_fault_tolerant();
  const std::lock_guard<std::mutex> lock(state.mutex);
  state.health->set_failure_mode(machine, mode);
  // No republish: scripting a probe outcome changes no detected state (the
  // generation moves when a scoring step actually detects the failure —
  // readers then bypass the cache and republish opportunistically).
}

RecoveryReport KnnService::recover_locked(State& state, std::size_t machine) {
  if (state.health->state(machine) != MachineState::Dead) {
    throw ServiceStateError("dknn: recover_machine(" + std::to_string(machine) +
                            "): machine is not dead");
  }
  const std::vector<std::uint32_t> alive = state.health->alive_set();
  if (alive.empty()) throw NoLiveMachinesError("dknn: recovery: every machine is dead");

  // Survivors elect the recovery coordinator; the generation salt makes
  // successive recoveries reproducible yet distinct.
  const std::uint64_t seed = state.config.fault.election_seed + state.health->generation();
  ElectionRun election = elect_coordinator(alive, state.config.fault.election, seed);

  // Re-shard the dead machine's mirrored points round-robin over the
  // survivors, starting at the coordinator.  Records arrive ascending by
  // id, so placement is deterministic.  Payload tables are COW (published
  // snapshots keep reading the old ones): clone each touched survivor's
  // table once, batch the edits, swap at the end.
  std::vector<ReplicaRecord> records = state.mirror->recover(machine);
  state.pending_erases[machine].clear();
  std::size_t start = 0;
  for (std::size_t i = 0; i < alive.size(); ++i) {
    if (alive[i] == election.coordinator) start = i;
  }
  std::vector<std::shared_ptr<std::unordered_map<PointId, std::uint32_t>>> fresh_labels(
      state.labels.size());
  std::vector<std::shared_ptr<std::unordered_map<PointId, double>>> fresh_targets(
      state.targets.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    ReplicaRecord& rec = records[i];
    const std::size_t target = alive[(start + i) % alive.size()];
    state.stores[target]->insert(rec.point, rec.id);
    if (rec.label.has_value()) {
      if (fresh_labels[target] == nullptr) {
        fresh_labels[target] = std::make_shared<std::unordered_map<PointId, std::uint32_t>>(
            *state.labels[target]);
      }
      (*fresh_labels[target])[rec.id] = *rec.label;
    }
    if (rec.target.has_value()) {
      if (fresh_targets[target] == nullptr) {
        fresh_targets[target] =
            std::make_shared<std::unordered_map<PointId, double>>(*state.targets[target]);
      }
      (*fresh_targets[target])[rec.id] = *rec.target;
    }
    state.mirror->record(target, std::move(rec));
  }
  for (std::size_t m = 0; m < fresh_labels.size(); ++m) {
    if (fresh_labels[m] != nullptr) state.labels[m] = std::move(fresh_labels[m]);
    if (fresh_targets[m] != nullptr) state.targets[m] = std::move(fresh_targets[m]);
  }
  state.labels[machine] = std::make_shared<std::unordered_map<PointId, std::uint32_t>>();
  state.targets[machine] = std::make_shared<std::unordered_map<PointId, double>>();
  state.health->retire(machine);
  publish_locked(state);

  RecoveryReport report;
  report.machine = machine;
  report.election = election;
  report.points_recovered = records.size();
  return report;
}

RecoveryReport KnnService::recover_machine(std::size_t machine) {
  State& state = ensure_fault_tolerant();
  (void)ensure_live();
  const std::lock_guard<std::mutex> lock(state.mutex);
  return recover_locked(state, machine);
}

std::vector<RecoveryReport> KnnService::recover_all() {
  State& state = ensure_fault_tolerant();
  (void)ensure_live();
  const std::lock_guard<std::mutex> lock(state.mutex);
  std::vector<RecoveryReport> reports;
  for (const std::size_t machine : state.health->dead_set()) {
    reports.push_back(recover_locked(state, machine));
  }
  return reports;
}

std::vector<PointId> KnnService::live_ids_on(std::size_t machine) const {
  State& state = ensure_fault_tolerant();
  (void)ensure_live();
  const std::lock_guard<std::mutex> lock(state.mutex);
  return state.mirror->ids_on(machine);
}

// --- builder -----------------------------------------------------------------

KnnServiceBuilder& KnnServiceBuilder::machines(std::uint32_t k) {
  config_.machines = k;
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::ell(std::uint64_t ell) {
  config_.ell = ell;
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::metric(MetricKind kind) {
  config_.metric = kind;
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::algo(KnnAlgo algo) {
  config_.algo = algo;
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::policy(ScoringPolicy policy) {
  config_.policy = policy;
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::leaf_size(std::size_t leaf_size) {
  config_.leaf_size = leaf_size;
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::partition(PartitionScheme scheme) {
  config_.partition = scheme;
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::seed(std::uint64_t seed) {
  config_.seed = seed;
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::scoring(const BatchScoringConfig& scoring) {
  config_.scoring = scoring;
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::engine(const EngineConfig& engine) {
  config_.engine = engine;
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::knn(const KnnConfig& knn) {
  config_.knn = knn;
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::live() {
  config_.live = true;
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::seal_threshold(std::size_t points) {
  config_.seal_threshold = points;
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::compaction(const CompactionConfig& compaction) {
  config_.compaction = compaction;
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::cache_capacity(std::size_t entries) {
  config_.cache_capacity = entries;
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::coalesce(std::size_t max_batch,
                                               std::chrono::microseconds max_delay) {
  config_.coalesce_max_batch = max_batch;
  config_.coalesce_max_delay = max_delay;
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::fault_tolerant() {
  config_.fault_tolerant = true;
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::fault_tolerant(const FaultConfig& fault) {
  config_.fault_tolerant = true;
  config_.fault = fault;
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::trace(std::uint64_t sample_every, std::size_t capacity) {
  config_.trace_sample_every = sample_every;
  config_.trace_capacity = capacity;
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::config(const ServiceConfig& config) {
  config_ = config;
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::dim(std::size_t dim) {
  dim_ = dim;
  return *this;
}

KnnServiceBuilder& KnnServiceBuilder::dataset(std::vector<PointD> points) {
  have_flat_ = true;
  flat_points_ = std::move(points);
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::dataset_sharded(std::vector<VectorShard> shards) {
  have_sharded_ = true;
  shards_ = std::move(shards);
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::labels(std::vector<std::uint32_t> labels) {
  have_labels_ = true;
  flat_labels_ = std::move(labels);
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::targets(std::vector<double> targets) {
  have_targets_ = true;
  flat_targets_ = std::move(targets);
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::labels_sharded(
    std::vector<std::vector<std::uint32_t>> labels) {
  have_labels_ = true;
  sharded_labels_ = std::move(labels);
  return *this;
}
KnnServiceBuilder& KnnServiceBuilder::targets_sharded(std::vector<std::vector<double>> targets) {
  have_targets_ = true;
  sharded_targets_ = std::move(targets);
  return *this;
}

KnnService KnnServiceBuilder::build() {
  require_positive_ell(config_.ell);
  if (config_.coalesce_max_batch == 0) {
    throw ServiceStateError(
        "dknn: coalesce_max_batch must be positive (1 disables coalescing)");
  }
  if (have_flat_ && have_sharded_) {
    throw ServiceStateError("dknn: give the builder dataset() or dataset_sharded(), not both");
  }

  auto state = std::make_unique<KnnService::State>(config_.cache_capacity,
                                                   config_.trace_sample_every,
                                                   config_.trace_capacity);
  state->config = config_;

  // Assemble shards + payload tables.
  std::vector<VectorShard> shards;
  const std::size_t flat_count = flat_points_.size();
  ShardPlacement placement;
  if (have_sharded_) {
    if (!flat_labels_.empty() || !flat_targets_.empty()) {
      throw ServiceStateError(
          "dknn: flat labels()/targets() require a flat dataset(); use labels_sharded()/"
          "targets_sharded() with dataset_sharded()");
    }
    shards = std::move(shards_);
    if (shards.empty()) {
      throw ServiceStateError("dknn: dataset_sharded() needs at least one shard");
    }
    state->config.machines = static_cast<std::uint32_t>(shards.size());
  } else {
    if (!sharded_labels_.empty() || !sharded_targets_.empty()) {
      throw ServiceStateError(
          "dknn: labels_sharded()/targets_sharded() require dataset_sharded()");
    }
    if (config_.machines == 0) {
      throw ServiceStateError("dknn: KnnService needs at least one machine");
    }
    if (have_labels_ && flat_labels_.size() != flat_count) {
      throw ServiceStateError("dknn: labels() must align with dataset()");
    }
    if (have_targets_ && flat_targets_.size() != flat_count) {
      throw ServiceStateError("dknn: targets() must align with dataset()");
    }
    Rng rng(config_.seed);
    shards = make_vector_shards(std::move(flat_points_), config_.machines, config_.partition,
                                rng, placement);
  }

  const std::size_t k = shards.size();
  std::vector<std::unordered_map<PointId, std::uint32_t>> labels(k);
  std::vector<std::unordered_map<PointId, double>> targets(k);
  state->has_labels = have_labels_;
  state->has_targets = have_targets_;
  if (have_labels_ || have_targets_) {
    if (have_sharded_) {
      if (have_labels_ && sharded_labels_.size() != k) {
        throw ServiceStateError("dknn: labels_sharded() must align with dataset_sharded()");
      }
      if (have_targets_ && sharded_targets_.size() != k) {
        throw ServiceStateError("dknn: targets_sharded() must align with dataset_sharded()");
      }
      for (std::size_t m = 0; m < k; ++m) {
        if (have_labels_ && sharded_labels_[m].size() != shards[m].points.size()) {
          throw ServiceStateError("dknn: labels_sharded() must align with dataset_sharded()");
        }
        if (have_targets_ && sharded_targets_[m].size() != shards[m].points.size()) {
          throw ServiceStateError("dknn: targets_sharded() must align with dataset_sharded()");
        }
        for (std::size_t i = 0; i < shards[m].ids.size(); ++i) {
          if (have_labels_) labels[m].emplace(shards[m].ids[i], sharded_labels_[m][i]);
          if (have_targets_) targets[m].emplace(shards[m].ids[i], sharded_targets_[m][i]);
        }
      }
    } else {
      // Flat payloads follow their point through the partition.
      for (std::size_t i = 0; i < flat_count; ++i) {
        const auto [machine, row] = placement[i];
        const PointId id = shards[machine].ids[row];
        if (have_labels_) labels[machine].emplace(id, flat_labels_[i]);
        if (have_targets_) targets[machine].emplace(id, flat_targets_[i]);
      }
    }
  }
  // Seed the COW tables (mutators clone-and-swap from here on).
  state->labels.reserve(k);
  state->targets.reserve(k);
  for (std::size_t m = 0; m < k; ++m) {
    state->labels.push_back(
        std::make_shared<std::unordered_map<PointId, std::uint32_t>>(std::move(labels[m])));
    state->targets.push_back(
        std::make_shared<std::unordered_map<PointId, double>>(std::move(targets[m])));
  }

  // Dimensionality: from the data, else the explicit builder override.
  std::size_t dim = 0;
  for (const VectorShard& shard : shards) {
    if (!shard.points.empty()) {
      dim = shard.points.front().dim();
      break;
    }
  }
  if (dim == 0) dim = dim_;
  state->dim = dim;

  // Per-machine scoring structures.
  if (config_.live) {
    if (dim == 0) {
      throw ServiceStateError(
          "dknn: a live KnnService needs a known dimension (provide points or "
          "KnnServiceBuilder::dim)");
    }
    state->indexes = std::make_shared<const std::vector<ShardIndex>>();
    state->stores.reserve(k);
    for (VectorShard& shard : shards) {
      auto store = std::make_unique<SegmentStore>(
          dim, ServeConfig{config_.seal_threshold, config_.policy, config_.leaf_size});
      if (!shard.points.empty()) {
        store->insert_batch(shard.points, shard.ids);
        store->seal();
      }
      state->stores.push_back(std::move(store));
    }
  } else {
    state->indexes = std::make_shared<const std::vector<ShardIndex>>(
        make_shard_indexes(shards, config_.policy, config_.leaf_size));
  }

  // Fault tolerance: the health registry gates scoring in both modes; the
  // replica mirror (the recovery source) exists only where mutation does —
  // live mode.  insert_batch copied the shard spans, so reading them here
  // is safe.
  if (state->config.fault_tolerant) {
    state->health = std::make_unique<MachineHealth>(static_cast<std::uint32_t>(k),
                                                    state->config.fault.health);
    if (state->config.live) {
      state->mirror = std::make_unique<ReplicaMirror>(k);
      state->pending_erases.resize(k);
      for (std::size_t m = 0; m < k; ++m) {
        for (std::size_t i = 0; i < shards[m].ids.size(); ++i) {
          const PointId id = shards[m].ids[i];
          ReplicaRecord rec{shards[m].points[i], id, std::nullopt, std::nullopt};
          if (const auto it = state->labels[m]->find(id); it != state->labels[m]->end()) {
            rec.label = it->second;
          }
          if (const auto it = state->targets[m]->find(id); it != state->targets[m]->end()) {
            rec.target = it->second;
          }
          state->mirror->record(m, std::move(rec));
        }
      }
    }
  }

  // Service-owned scoring pool: spawn once, reuse across every batch
  // (BatchScoringConfig{threads} would otherwise respawn per call).
  state->scoring = config_.scoring;
  if (state->scoring.pool == nullptr) {
    const std::size_t threads =
        state->scoring.threads != 0
            ? state->scoring.threads
            : std::max<std::size_t>(1, std::thread::hardware_concurrency());
    if (threads > 1) {
      state->pool = std::make_unique<ThreadPool>(threads, state->scoring.seed);
      state->scoring.pool = state->pool.get();
    }
  }

  // Background compactors: one per store on the owned pool; each installed
  // round republishes the snapshot from the worker so lock-free readers
  // see the compacted segments without waiting for the next mutation.
  if (state->config.live && state->pool != nullptr) {
    KnnService::State* raw = state.get();
    state->compactors.reserve(state->stores.size());
    for (const auto& store : state->stores) {
      auto compactor =
          std::make_unique<Compactor>(*store, *state->pool, state->config.compaction);
      compactor->set_on_complete([raw](bool installed) {
        if (!installed) return;
        // Safe against the mutation mutex: no code path waits on the pool
        // while holding it, so this lock always clears.
        const std::lock_guard<std::mutex> lock(raw->mutex);
        KnnService::publish_locked(*raw);
      });
      state->compactors.push_back(std::move(compactor));
    }
  }

  // The initial publish — queries are lock-free from the first call.
  KnnService::publish_locked(*state);

  return KnnService(std::move(state));
}

}  // namespace dknn
