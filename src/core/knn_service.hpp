#pragma once
/// \file knn_service.hpp
/// \brief One front door: the `KnnService` facade over the static, batched
///        and live-serving query paths.
///
/// Four PRs grew four parallel entry styles — per-query free functions
/// (`score_vector_shards` → `run_knn`), the resident batch path
/// (`make_shard_indexes` → `score_vector_shards_batch` → `run_knn_batch`),
/// the serve path (`SegmentStore` → `score_serve_snapshots_batch`), and
/// mlapi overloads for each — so every new capability had to be threaded
/// through all of them by hand.  `KnnService` is the single handle
/// production-scale distributed KNN systems expose over these concerns
/// (PANDA, arXiv:1607.08220; Debatty et al.'s online-index argument,
/// arXiv:1602.06819): one object owns the shards, the per-machine scoring
/// structures (ShardIndexes or SegmentStores), the scoring thread pool and
/// the epoch-keyed result cache, and `query` / `query_batch` / `classify`
/// / `regress` are the *same call* whether the dataset is frozen or
/// churning.
///
///   KnnService svc = KnnServiceBuilder()
///                        .machines(16).ell(8)
///                        .metric(MetricKind::SquaredEuclidean)
///                        .policy(ScoringPolicy::Auto)
///                        .dataset(std::move(points))
///                        .build();
///   QueryResult r = svc.query(q);           // keys + epoch + cost report
///
///   KnnService live = KnnServiceBuilder().machines(4).ell(8)
///                        .live().dataset(std::move(points)).build();
///   live.insert(p, id);  live.erase(other);  live.compact_now();
///   QueryResult r2 = live.query(q);         // same call, same result type
///
/// Parity contract (fuzzed in tests/test_service.cpp, ≥500 trials across
/// 4 metrics × brute/tree/auto × static/live): `query_batch` is
/// byte-identical to composing the free functions yourself —
/// `score_vector_shards_batch` + `run_knn_batch` in static mode,
/// `score_serve_snapshots_batch` + `run_knn_batch` in live mode.  The free
/// functions remain public as the decomposed stages; new capabilities land
/// here once instead of once per path.  Every read entry point —
/// query / query_batch / classify* / regress* — scores through one private
/// scoring step, so the live × fault-tolerant dispatch exists once.
///
/// Preconditions are validated centrally (data/validate.hpp) with typed
/// errors and stable texts instead of per-path panics:
///   * dimension mismatch        → DimensionMismatchError
///   * ℓ = 0                     → InvalidEllError (at build())
///   * query before build, live-only calls on a static service, classify
///     without labels            → ServiceStateError
/// ℓ > n stays permissive — every path returns min(ℓ, n) keys, exactly
/// like the free functions.
///
/// Thread-safety — the epoch-snapshot read discipline (same as
/// SegmentStore's): `query` / `query_batch` / `classify` / `regress` grab
/// one immutable, atomically-published ServiceSnapshot (the stores'
/// snapshots + indexes + payload tables + health generation) and never
/// touch the service mutex; only mutations (insert / erase / compact /
/// kill / revive / recover) serialize on it, republishing the snapshot
/// before returning.  Readers therefore never block mutators and vice
/// versa — a query that began before an insert finishes against the
/// membership it started with, stamped with that epoch.  The bookkeeping
/// readers (total_points / contains / live_ids / segment_count /
/// compaction_debt / live_ids_on) still take the service mutex — they read
/// the mutable mirror, not the snapshot.  `query()` additionally coalesces
/// concurrently-submitted singles through one leader/follower seat per
/// service — the library's only coalescing seat — so under load singles
/// approach the batch path's kernel amortization; query_batch bypasses the
/// seat.

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/driver.hpp"
#include "core/mlapi.hpp"
#include "data/validate.hpp"
#include "fault/health.hpp"
#include "fault/recovery.hpp"
#include "obs/trace.hpp"
#include "serve/result_cache.hpp"
#include "serve/segment_store.hpp"
#include "sim/engine.hpp"
#include "sim/thread_pool.hpp"

namespace dknn {

/// A facade call that the service's current lifecycle state cannot honor
/// (query before build, insert on a static service, classify without
/// labels, ...).
class ServiceStateError final : public PreconditionError {
 public:
  using PreconditionError::PreconditionError;
};

/// Fault-tolerance knobs of a fault_tolerant service.
struct FaultConfig {
  /// Detection budgets of the per-machine health registry.
  HealthConfig health{};
  /// Which election the survivors run to pick a recovery coordinator.
  ElectionKind election = ElectionKind::MinId;
  /// Base seed of the survivor elections; mixed with the health generation
  /// so successive recoveries draw distinct, reproducible streams.
  std::uint64_t election_seed = 1;
};

/// Everything a KnnService is built from.  The builder below fills one of
/// these fluently; passing a hand-rolled config to
/// KnnServiceBuilder::config is equivalent.
struct ServiceConfig {
  /// k — simulated machines the dataset shards over (ignored when the
  /// dataset arrives pre-sharded; then k = shards.size()).
  std::uint32_t machines = 8;
  /// ℓ of every answer; must be ≥ 1 (answers still cap at min(ℓ, n)).
  std::uint64_t ell = 8;
  MetricKind metric = MetricKind::SquaredEuclidean;
  /// Distributed selection algorithm for query/classify/regress (per-call
  /// override available on query/query_batch).
  KnnAlgo algo = KnnAlgo::DistKnn;
  /// Local scoring structure (a ShardIndex, seq/scoring_policy.hpp) per
  /// machine in static mode, or per sealed segment of every live store.
  ScoringPolicy policy = ScoringPolicy::Auto;
  /// Leaf size of every KdRangeIndex those structures build.
  std::size_t leaf_size = KdRangeIndex::kDefaultLeafSize;
  /// How a flat dataset() shards over the machines.
  PartitionScheme partition = PartitionScheme::RoundRobin;
  /// Seed for id assignment + partitioning of a flat dataset().
  std::uint64_t seed = 1;
  /// Scoring-step execution knobs.  `scoring.pool` may point at an
  /// external pool; otherwise the service owns one when threads != 1.
  BatchScoringConfig scoring{};
  EngineConfig engine{};
  KnnConfig knn{};
  /// Live-serving mode: machines are SegmentStores (insert/erase/
  /// compact_now/snapshot_epoch available) instead of frozen ShardIndexes.
  bool live = false;
  /// Live mode: delta points a store buffers before sealing them into an
  /// immutable segment (each store's ServeConfig is this plus `policy` and
  /// `leaf_size`).
  std::size_t seal_threshold = ServeConfig{}.seal_threshold;
  /// compact_now()'s victim-selection policy.
  CompactionConfig compaction{};
  /// Epoch-keyed result-cache entries for query/query_batch; 0 disables.
  /// Sound in both modes: answers are deterministic per epoch, and any
  /// mutation advances the service epoch.  The key is (coord bits, ℓ,
  /// metric, effective epoch) — per-call ℓ/metric overrides can never
  /// collide with canonical answers.  A fault-tolerant service
  /// additionally mixes the health generation into the effective epoch, so
  /// a degraded answer is never served after a liveness change (and vice
  /// versa).
  std::size_t cache_capacity = 0;
  /// query()'s coalescing seat (leader/follower micro-batching, one seat
  /// per service): concurrently submitted singles ride one
  /// scored batch of up to `coalesce_max_batch`; the leader waits up to
  /// `coalesce_max_delay` for companions (0 = coalesce only queries
  /// already queued — no added latency, the default).  Coalescing changes
  /// no answer bytes: each answer is a pure function of (snapshot, query,
  /// effective ℓ/metric), and batch-mates with different overrides score
  /// in separate groups.
  std::size_t coalesce_max_batch = 32;
  std::chrono::microseconds coalesce_max_delay{0};
  /// Machine-failure handling: a MachineHealth registry gates every
  /// scoring step (deadline + bounded retry), dead machines degrade the
  /// answer (QueryResult::coverage) instead of failing it, and
  /// recover_machine() re-shards a dead machine's points onto survivors.
  /// Off by default — a non-fault-tolerant service behaves byte-identically
  /// to before this layer existed.
  bool fault_tolerant = false;
  FaultConfig fault{};
  /// Per-query tracing (see obs/trace.hpp): sample every Nth query() into
  /// the trace ring (0 = off — only QueryOptions::trace forces a trace).
  /// Tracing never changes answer bytes; an untraced call pays one branch.
  std::uint64_t trace_sample_every = 0;
  /// Recent-trace ring capacity (KnnService::recent_traces()).
  std::size_t trace_capacity = 256;
};

/// Per-call overrides for query / query_batch.  Implicitly constructible
/// from a KnnAlgo so existing `svc.query(p, KnnAlgo::Simple)` call sites
/// read unchanged.  Overridden ℓ/metric answers are cached under their own
/// key — the cache key carries (ℓ, metric) alongside the coordinate bits,
/// so they can never collide with canonical answers.
struct QueryOptions {
  /// Selection protocol for this call (affects cost, never keys).
  std::optional<KnnAlgo> algo;
  /// Answer size for this call; must be ≥ 1 (InvalidEllError otherwise).
  std::optional<std::uint64_t> ell;
  /// Distance metric for this call.
  std::optional<MetricKind> metric;
  /// Force a trace of this call into the recent-trace ring regardless of
  /// ServiceConfig::trace_sample_every.  Never changes the answer bytes.
  /// query() traces the one query; query_batch traces the whole non-empty
  /// batch as one unit (an empty batch answers nothing and traces
  /// nothing).
  bool trace = false;

  QueryOptions() = default;
  QueryOptions(KnnAlgo algo) : algo(algo) {}  // NOLINT(google-explicit-constructor)
  QueryOptions(std::optional<KnnAlgo> algo) : algo(algo) {}  // NOLINT
};

/// One query's answer through the facade — the same shape for the static
/// and the live path.
struct QueryResult {
  /// The global ℓ-NN as (distance-rank, id) keys, ascending; size =
  /// min(ℓ, live points).
  std::vector<Key> keys;
  /// Service epoch the answer is exact for (0 in static mode — the
  /// dataset never moves).
  std::uint64_t epoch = 0;
  /// Engine cost report.  For query(): the whole run.  For query_batch():
  /// this query's round count (whole-batch traffic lives on
  /// BatchQueryResult::report).  Empty on a cache hit — no protocol ran.
  RunReport report;
  /// Driver-loop iterations / Algorithm 2 sampling telemetry (see
  /// GlobalRunResult).
  std::uint32_t iterations = 0;
  std::uint32_t attempts = 1;
  std::uint64_t candidates = 0;
  bool prune_ok = true;
  /// True iff the answer came out of the service's result cache.
  bool cache_hit = false;
  /// Queries scored together in the call this answer rode in.
  std::uint32_t batch_size = 0;
  /// Which machines answered.  Complete (missing empty, total = machines)
  /// outside fault-tolerant mode and whenever everything is healthy; a
  /// degraded answer lists the dead machines whose shards it could not
  /// see — it is still byte-exact over the surviving shards.
  Coverage coverage;
};

/// A batched run's answers plus the whole-batch engine report.
struct BatchQueryResult {
  std::vector<QueryResult> per_query;  ///< in query order
  /// One engine, B queries: setup and warm-up amortize across the batch.
  /// Covers the cache-missing queries only (hits run no protocol).
  RunReport report;
  std::uint64_t epoch = 0;  ///< service epoch all answers are exact for
};

/// Facade health counters.  cache_hits + cache_misses == queries at
/// *every* cache configuration and for every entry point — a disabled
/// cache (capacity 0) counts every scored answer as a miss (see
/// result_cache.hpp's stats convention), and classify/regress answers,
/// which never consult the cache, count as misses too.  queries, batches,
/// cache_hits and cache_misses each move with their dknn_service_*
/// registry twin, so their deltas agree.
struct ServiceStats {
  std::uint64_t queries = 0;        ///< answers produced (all entry points)
  std::uint64_t batches = 0;        ///< scoring+protocol runs executed
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_flushes = 0;
  /// Kd-hybrid traversal counters summed over every tree-carrying shard
  /// (static mode) or tree segment (live mode) — the measured pruning
  /// behavior behind the Auto routing policy.  All-zero when no
  /// shard/segment carries a tree.  Live mode: a monotone lifetime total —
  /// compaction banks retired segments' counters into a store-level base
  /// before unpublishing them (SegmentStore::tree_stats), so installs
  /// never shrink these numbers.  Traversals recorded against a snapshot
  /// held across the install may still land after the banking read and be
  /// missed — diagnostics, racy by design.
  TreeStats tree;
};

class KnnServiceBuilder;

class KnnService {
 public:
  /// An unbuilt service; every call except built() throws
  /// ServiceStateError until a builder assigns into it.
  KnnService();

  KnnService(KnnService&&) noexcept;
  KnnService& operator=(KnnService&&) noexcept;
  KnnService(const KnnService&) = delete;
  KnnService& operator=(const KnnService&) = delete;
  ~KnnService();

  [[nodiscard]] bool built() const { return state_ != nullptr; }
  /// True iff built in live-serving mode.
  [[nodiscard]] bool live() const;
  [[nodiscard]] const ServiceConfig& config() const;
  /// Dataset dimensionality (0 = not yet known: empty static dataset).
  [[nodiscard]] std::size_t dim() const;
  [[nodiscard]] std::size_t machines() const;
  /// Live points across all machines (static mode: total resident points).
  [[nodiscard]] std::size_t total_points() const;

  // --- queries (static and live mode; lock-free snapshot reads, any thread) -

  /// Full distributed answer for one query: local scoring on every
  /// machine, the configured selection protocol (default Algorithm 2), the
  /// globally merged ℓ-NN.  `options` overrides algo / ℓ / metric for this
  /// call only.  Concurrent query() calls coalesce through the service's
  /// leader/follower seat (see ServiceConfig::coalesce_max_batch); a
  /// coalesced member's `report` carries its per-query round counts — the
  /// whole-group engine report belongs to no single caller and is dropped
  /// (a lone, uncoalesced query still owns the full report, as before).
  [[nodiscard]] QueryResult query(const PointD& point, const QueryOptions& options = {});

  /// Batched entry: the whole block is scored with the fused kernels and
  /// driven through one engine run (cache hits excluded).  Byte-identical
  /// to score_vector_shards_batch/score_serve_snapshots_batch +
  /// run_knn_batch over the same machines.  Bypasses the coalescing seat.
  [[nodiscard]] BatchQueryResult query_batch(std::span<const PointD> queries,
                                             const QueryOptions& options = {});

  /// Distributed ℓ-NN classification (majority / inverse-distance vote of
  /// the global winners' labels).  Requires labels at build time (or via
  /// insert_labeled).  Scores exactly like query_batch at the service's
  /// (ℓ, metric) — result q's `run.keys` equal query_batch's keys for
  /// query q, degraded answers included — then votes
  /// through classify_scored_batch.
  [[nodiscard]] ClassifyResult classify(const PointD& point,
                                        VoteRule rule = VoteRule::Majority);
  [[nodiscard]] std::vector<ClassifyResult> classify_batch(std::span<const PointD> queries,
                                                           VoteRule rule = VoteRule::Majority);

  /// Distributed ℓ-NN regression (mean target of the global winners).
  [[nodiscard]] RegressResult regress(const PointD& point);
  [[nodiscard]] std::vector<RegressResult> regress_batch(std::span<const PointD> queries);

  [[nodiscard]] ServiceStats stats() const;

  // --- observability (obs/ layer; any thread) -------------------------------

  /// Prometheus text exposition of the process-wide metrics registry
  /// (every dknn_* counter / gauge / histogram, all services and layers).
  [[nodiscard]] std::string metrics_text() const;
  /// The same registry snapshot as JSON (counters, gauges, histograms with
  /// p50/p95/p99 and non-empty buckets).
  [[nodiscard]] std::string metrics_json() const;
  /// The most recent sampled / forced query traces, oldest first (ring of
  /// ServiceConfig::trace_capacity).  Serialize with obs::Tracer::to_json
  /// or to_chrome.
  [[nodiscard]] std::vector<obs::QueryTrace> recent_traces() const;
  /// Adjusts trace sampling at runtime (0 = off; overrides the built
  /// ServiceConfig::trace_sample_every).
  void set_trace_sampling(std::uint64_t sample_every);

  // --- live-serving surface (ServiceStateError in static mode) --------------

  /// Appends a live point on the next machine in round-robin order.  `id`
  /// must be distinct from every live id across all machines.  Returns the
  /// new service epoch.
  std::uint64_t insert(const PointD& point, PointId id);
  /// insert() plus a label / target for classify() / regress().
  std::uint64_t insert_labeled(const PointD& point, PointId id, std::uint32_t label);
  std::uint64_t insert_target(const PointD& point, PointId id, double target);

  /// Deletes a live point wherever it lives.  Returns the new service
  /// epoch, or nullopt (and no epoch advance) when `id` is not live.
  std::optional<std::uint64_t> erase(PointId id);

  /// Synchronously pays off compaction debt on every machine (tombstone
  /// purges + small-segment merges under `config().compaction`).  Returns
  /// the new service epoch.  Held QueryResults are unaffected — they own
  /// their keys and stay exact for the epoch they are stamped with.
  /// Runs *without* the service mutex (merges read frozen views; installs
  /// are conditional on victim identity, so racing erases win and the
  /// round re-plans) — in-flight queries and concurrent mutations are
  /// never blocked behind the merge work.
  std::uint64_t compact_now();

  /// Background maintenance tick: schedules at most one compaction round
  /// per indebted machine on the service's owned pool (conditional install
  /// on tombstone identity, exactly the Compactor discipline) and returns
  /// immediately; the snapshot republishes from the worker as each round
  /// installs.  Returns the number of rounds scheduled.  Cheap enough to
  /// call every serving-loop tick.  Falls back to one inline round per
  /// machine when the service owns no pool (serial scoring config).
  std::size_t maybe_compact();

  /// The service epoch: strictly monotone over mutations (sum of the
  /// per-machine store epochs), 0 in static mode.  The epoch every
  /// QueryResult is stamped with and the result cache is keyed by.
  [[nodiscard]] std::uint64_t snapshot_epoch() const;

  /// True iff `id` is currently live (live mode; ServiceStateError in
  /// static mode — a static dataset has no mutable membership to probe).
  [[nodiscard]] bool contains(PointId id) const;

  /// Every live point id across all machines, ascending (live mode).
  /// O(live points) — the handle callers need to erase or relabel points
  /// the *builder* loaded (their random ids are assigned internally);
  /// also the safe way to mint fresh ids: pick anything contains() denies.
  [[nodiscard]] std::vector<PointId> live_ids() const;

  /// Maintenance telemetry (live mode; 0 / config-sized in static mode).
  [[nodiscard]] std::size_t segment_count() const;
  [[nodiscard]] std::uint64_t compaction_debt() const;

  // --- fault-tolerance surface (ServiceStateError unless fault_tolerant) ----

  /// True iff built with fault tolerance enabled.
  [[nodiscard]] bool fault_tolerant() const;
  /// The health registry (read-only; mutate liveness through the methods
  /// below so service bookkeeping — pending erases, mirrors — stays
  /// consistent).
  [[nodiscard]] const MachineHealth& health() const;

  /// Fail-stops an alive machine: its shard drops out of every answer
  /// (coverage reports it missing) until revive or recovery.
  void kill_machine(std::size_t machine);
  /// Brings a dead machine back with its store intact; erases issued while
  /// it was down are applied before it rejoins, so deleted points never
  /// resurrect.  Queries afterwards are byte-identical to a never-failed
  /// service at the same membership.
  void revive_machine(std::size_t machine);
  /// Scripts probe outcomes for chaos tests: an Unresponsive machine is
  /// *detected* dead by the next scoring step's deadline gate rather than
  /// declared dead up front.
  void set_failure_mode(std::size_t machine, FailureMode mode);

  /// Recovers one dead machine (live mode): survivors elect a coordinator
  /// (config().fault.election), the dead machine's mirrored points
  /// re-insert onto the survivors round-robin from the coordinator
  /// (ascending id — deterministic), and the machine retires out of
  /// coverage.  Afterwards answers are byte-identical to a never-failed
  /// service over the same membership.  Throws ServiceStateError unless
  /// the machine is dead; NoLiveMachinesError when no survivor remains.
  RecoveryReport recover_machine(std::size_t machine);
  /// Recovers every dead machine, ascending id.
  std::vector<RecoveryReport> recover_all();

  /// Member ids homed on one machine, ascending (live fault-tolerant mode;
  /// a dead machine still owns its membership until recovered).
  [[nodiscard]] std::vector<PointId> live_ids_on(std::size_t machine) const;

 private:
  friend class KnnServiceBuilder;
  struct State;
  /// The immutable read-path view (stores' snapshots + indexes + payload
  /// tables + liveness at publish); defined in the .cpp.
  struct Snapshot;
  /// One waiting query() call's slot in the coalescing seat.
  struct SeatSlot;
  explicit KnnService(std::unique_ptr<State> state);

  /// Throws ServiceStateError unless built.
  [[nodiscard]] State& ensure_built() const;
  /// Throws ServiceStateError unless built live.
  [[nodiscard]] State& ensure_live() const;
  /// Throws ServiceStateError unless built fault-tolerant.
  [[nodiscard]] State& ensure_fault_tolerant() const;
  /// Body of recover_machine, mutex already held.
  static RecoveryReport recover_locked(State& state, std::size_t machine);
  /// Shared body of the insert family: validate, route round-robin,
  /// insert.  Returns the machine the point landed on.
  static std::size_t insert_point(State& state, const PointD& point, PointId id);
  /// Rebuilds and atomically publishes the read-path snapshot; called at
  /// the end of every mutation, with the service mutex held.
  static void publish_locked(State& state);
  /// The one scoring step of every read path: scores `queries` on every
  /// machine of `snap` (live store snapshots or static indexes) at
  /// (ℓ, metric).  A fault-tolerant service probes every machine first
  /// and reconciles the probe with the liveness published in `snap`
  /// (snapshot_probe); skipped machines keep empty slots.  `coverage`
  /// receives which machines answered.  Emits the shard_scoring span into
  /// `sink`.
  static std::vector<std::vector<std::vector<Key>>> score_step(
      State& state, const Snapshot& snap, std::span<const PointD> queries, std::uint64_t ell,
      MetricKind metric, const obs::TraceSink& sink, Coverage& coverage);
  /// Shared scored-batch core of query / query_batch: cache pass +
  /// score_step + selection + cache publish against one snapshot, no
  /// service mutex.  `sink` fans stage spans (cache_lookup / shard_scoring
  /// / selection / merge) to the traced members of the batch — pass an
  /// empty sink when nothing is traced.
  static BatchQueryResult run_batch_core(State& state,
                                         const std::shared_ptr<const Snapshot>& snap,
                                         std::span<const PointD> queries, KnnAlgo algo,
                                         std::uint64_t ell, MetricKind metric,
                                         const obs::TraceSink& sink);
  /// Shared body of classify_batch / regress_batch: payload check, one
  /// snapshot, score_step at the service's (ℓ, metric), `vote(scored,
  /// snapshot)` for the answers, and the ledger (cache-bypass answers).
  template <typename Result, typename Vote>
  std::vector<Result> predict_batch(std::span<const PointD> queries, bool targets,
                                    const Vote& vote);
  /// Leader body of the coalescing seat: groups `batch` by effective
  /// (algo, ℓ, metric) and runs each group through run_batch_core against
  /// one snapshot.
  static void execute_seat(State& state, std::span<SeatSlot*> batch);

  std::unique_ptr<State> state_;
};

/// Fluent assembly of a KnnService.  Setters return *this so construction
/// reads as one expression; build() consumes the staged dataset (a builder
/// is one-shot).
class KnnServiceBuilder {
 public:
  KnnServiceBuilder() = default;

  KnnServiceBuilder& machines(std::uint32_t k);
  KnnServiceBuilder& ell(std::uint64_t ell);
  KnnServiceBuilder& metric(MetricKind kind);
  KnnServiceBuilder& algo(KnnAlgo algo);
  KnnServiceBuilder& policy(ScoringPolicy policy);
  KnnServiceBuilder& leaf_size(std::size_t leaf_size);
  KnnServiceBuilder& partition(PartitionScheme scheme);
  KnnServiceBuilder& seed(std::uint64_t seed);
  KnnServiceBuilder& scoring(const BatchScoringConfig& scoring);
  KnnServiceBuilder& engine(const EngineConfig& engine);
  KnnServiceBuilder& knn(const KnnConfig& knn);
  /// Switches to live-serving mode: the stores build their sealed
  /// segments under policy()/leaf_size(), like static shards.
  KnnServiceBuilder& live();
  /// Live mode's delta size before a seal (see ServiceConfig).
  KnnServiceBuilder& seal_threshold(std::size_t points);
  KnnServiceBuilder& compaction(const CompactionConfig& compaction);
  KnnServiceBuilder& cache_capacity(std::size_t entries);
  /// query()'s coalescing-seat knobs (see ServiceConfig).
  KnnServiceBuilder& coalesce(std::size_t max_batch,
                              std::chrono::microseconds max_delay = std::chrono::microseconds{0});
  /// Enables machine-failure handling (see ServiceConfig::fault_tolerant).
  KnnServiceBuilder& fault_tolerant();
  KnnServiceBuilder& fault_tolerant(const FaultConfig& fault);
  /// Per-query trace sampling knobs (see ServiceConfig::trace_sample_every).
  KnnServiceBuilder& trace(std::uint64_t sample_every, std::size_t capacity = 256);
  /// Wholesale config (fields staged so far are overwritten).
  KnnServiceBuilder& config(const ServiceConfig& config);
  /// Explicit dimensionality — required only for a live service built
  /// without points.
  KnnServiceBuilder& dim(std::size_t dim);

  /// A flat dataset: the builder shards it over `machines()` with
  /// `partition()` and assigns the paper's random unique ids (seeded —
  /// byte-identical to calling make_vector_shards yourself with the same
  /// seed).
  KnnServiceBuilder& dataset(std::vector<PointD> points);
  /// A pre-sharded dataset (the migration path from make_vector_shards /
  /// make_shard_indexes call sites): machine count and ids come from the
  /// shards.
  KnnServiceBuilder& dataset_sharded(std::vector<VectorShard> shards);

  /// Labels / targets aligned with a flat dataset() (labels[i] belongs to
  /// points[i]) — the builder routes them through the partition.
  KnnServiceBuilder& labels(std::vector<std::uint32_t> labels);
  KnnServiceBuilder& targets(std::vector<double> targets);
  /// Labels / targets aligned with dataset_sharded() (labels[m][i]
  /// belongs to shards[m].points[i]).
  KnnServiceBuilder& labels_sharded(std::vector<std::vector<std::uint32_t>> labels);
  KnnServiceBuilder& targets_sharded(std::vector<std::vector<double>> targets);

  /// Validates (typed errors, see the file comment), shards, builds the
  /// per-machine scoring structures (ShardIndexes or sealed SegmentStores)
  /// and the service's pool + cache, and hands the assembled service over.
  [[nodiscard]] KnnService build();

 private:
  ServiceConfig config_{};
  std::size_t dim_ = 0;
  bool have_flat_ = false;
  std::vector<PointD> flat_points_;
  std::vector<std::uint32_t> flat_labels_;
  std::vector<double> flat_targets_;
  bool have_sharded_ = false;
  std::vector<VectorShard> shards_;
  std::vector<std::vector<std::uint32_t>> sharded_labels_;
  std::vector<std::vector<double>> sharded_targets_;
  bool have_labels_ = false;
  bool have_targets_ = false;
};

}  // namespace dknn
