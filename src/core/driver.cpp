#include "core/driver.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

#include "core/binsearch.hpp"
#include "core/saukas_song.hpp"
#include "core/simple_knn.hpp"
#include "seq/select.hpp"
#include "support/panic.hpp"

namespace dknn {
namespace {

/// Per-machine slot the programs write into; merged after the run.
struct Slot {
  std::vector<Key> selected;
  std::uint32_t iterations = 0;
  std::uint32_t attempts = 1;
  std::uint64_t candidates = 0;
  bool prune_ok = true;
};

/// One algorithm invocation for one query — shared by the single-query and
/// batched programs.
Task<void> knn_step(Ctx& ctx, std::vector<Key> mine, std::uint64_t ell, KnnAlgo algo,
                    KnnConfig knn_config, Slot& slot) {
  switch (algo) {
    case KnnAlgo::DistKnn: {
      KnnLocal local = co_await dist_knn(ctx, std::move(mine), ell, knn_config);
      slot.selected = std::move(local.selected);
      slot.iterations = local.select_iterations;
      slot.attempts = local.attempts;
      slot.candidates = local.candidates;
      slot.prune_ok = local.prune_ok;
      break;
    }
    case KnnAlgo::CappedSelect: {
      // §2.2's direct variant: zero pruning attempts drop straight into
      // Algorithm 1 over the kℓ capped points.
      KnnConfig direct = knn_config;
      direct.max_retries = 0;
      KnnLocal local = co_await dist_knn(ctx, std::move(mine), ell, direct);
      slot.selected = std::move(local.selected);
      slot.iterations = local.select_iterations;
      slot.candidates = local.candidates;
      break;
    }
    case KnnAlgo::Simple: {
      SimpleKnnLocal local =
          co_await simple_knn(ctx, std::move(mine), ell, SimpleKnnConfig{knn_config.leader, true});
      slot.selected = std::move(local.selected);
      break;
    }
    case KnnAlgo::SaukasSong: {
      SaukasSongLocal local =
          co_await saukas_song_select(ctx, std::move(mine), ell, SaukasSongConfig{knn_config.leader});
      slot.selected = std::move(local.selected);
      slot.iterations = local.iterations;
      break;
    }
    case KnnAlgo::BinSearch: {
      BinSearchLocal local =
          co_await binsearch_select(ctx, std::move(mine), ell, BinSearchConfig{knn_config.leader});
      slot.selected = std::move(local.selected);
      slot.iterations = local.probes;
      break;
    }
  }
}

Task<void> knn_program(Ctx& ctx, const std::vector<std::vector<Key>>* shards, std::uint64_t ell,
                       KnnAlgo algo, KnnConfig knn_config, std::vector<Slot>* slots) {
  co_await knn_step(ctx, (*shards)[ctx.id()], ell, algo, knn_config, (*slots)[ctx.id()]);
}

/// Batched program: one engine run drives every query through the
/// algorithm back to back; per-sender FIFO delivery keeps consecutive
/// instances separated (see session.hpp's pipelining note).
Task<void> knn_batch_program(Ctx& ctx, const std::vector<std::vector<std::vector<Key>>>* batch,
                             std::uint64_t ell, KnnAlgo algo, KnnConfig knn_config,
                             std::vector<std::vector<Slot>>* slots,
                             std::vector<std::vector<std::uint64_t>>* rounds) {
  for (std::size_t q = 0; q < batch->size(); ++q) {
    const std::uint64_t before = ctx.current_round();
    co_await knn_step(ctx, (*batch)[q][ctx.id()], ell, algo, knn_config,
                      (*slots)[q][ctx.id()]);
    (*rounds)[q][ctx.id()] = ctx.current_round() - before;
  }
}

Task<void> select_program(Ctx& ctx, const std::vector<std::vector<Key>>* shards,
                          std::uint64_t ell, SelectConfig select_config,
                          std::vector<Slot>* slots) {
  SelectLocal local = co_await dist_select(ctx, (*shards)[ctx.id()], ell, select_config);
  (*slots)[ctx.id()].selected = std::move(local.selected);
  (*slots)[ctx.id()].iterations = local.iterations;
}

GlobalRunResult merge_slots(std::vector<Slot> slots, RunReport report, MachineId leader) {
  GlobalRunResult out;
  out.report = std::move(report);
  for (auto& slot : slots) {
    out.keys.insert(out.keys.end(), slot.selected.begin(), slot.selected.end());
  }
  std::sort(out.keys.begin(), out.keys.end());
  const Slot& lead = slots[leader];
  out.iterations = lead.iterations;
  out.attempts = lead.attempts;
  out.candidates = lead.candidates;
  out.prune_ok = lead.prune_ok;
  return out;
}

}  // namespace

std::vector<ScalarShard> make_scalar_shards(std::vector<Value> values, std::uint32_t k,
                                            PartitionScheme scheme, Rng& rng) {
  std::vector<PointId> ids = assign_random_ids(values.size(), rng);
  std::vector<std::pair<Value, PointId>> tagged;
  tagged.reserve(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) tagged.emplace_back(values[i], ids[i]);
  auto parts = partition(std::move(tagged), k, scheme, rng);
  std::vector<ScalarShard> shards(k);
  for (std::uint32_t m = 0; m < k; ++m) {
    shards[m].values.reserve(parts[m].size());
    shards[m].ids.reserve(parts[m].size());
    for (const auto& [v, id] : parts[m]) {
      shards[m].values.push_back(v);
      shards[m].ids.push_back(id);
    }
  }
  return shards;
}

std::vector<VectorShard> make_vector_shards(std::vector<PointD> points, std::uint32_t k,
                                            PartitionScheme scheme, Rng& rng,
                                            ShardPlacement& placement) {
  std::vector<PointId> ids = assign_random_ids(points.size(), rng);
  std::vector<std::pair<std::size_t, PointId>> tagged;  // index + id (points not ordered)
  tagged.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) tagged.emplace_back(i, ids[i]);
  auto parts = partition(std::move(tagged), k, scheme, rng);
  placement.assign(points.size(), {0, 0});
  std::vector<VectorShard> shards(k);
  for (std::uint32_t m = 0; m < k; ++m) {
    shards[m].points.reserve(parts[m].size());
    shards[m].ids.reserve(parts[m].size());
    for (const auto& [index, id] : parts[m]) {
      placement[index] = {m, static_cast<std::uint32_t>(shards[m].points.size())};
      shards[m].points.push_back(std::move(points[index]));
      shards[m].ids.push_back(id);
    }
  }
  return shards;
}

std::vector<VectorShard> make_vector_shards(std::vector<PointD> points, std::uint32_t k,
                                            PartitionScheme scheme, Rng& rng) {
  ShardPlacement placement;
  return make_vector_shards(std::move(points), k, scheme, rng, placement);
}

std::vector<Key> score_scalar_shard(const ScalarShard& shard, Value query) {
  DKNN_REQUIRE(shard.values.size() == shard.ids.size(), "shard values/ids must align");
  std::vector<Key> keys;
  keys.reserve(shard.values.size());
  for (std::size_t i = 0; i < shard.values.size(); ++i) {
    keys.push_back(Key{scalar_distance(shard.values[i], query), shard.ids[i]});
  }
  return keys;
}

std::vector<std::vector<Key>> score_scalar_shards(const std::vector<ScalarShard>& shards,
                                                  Value query) {
  std::vector<std::vector<Key>> out;
  out.reserve(shards.size());
  for (const auto& shard : shards) out.push_back(score_scalar_shard(shard, query));
  return out;
}

std::vector<Key> score_hamming_shard(const ScalarShard& shard, Value query) {
  DKNN_REQUIRE(shard.values.size() == shard.ids.size(), "shard values/ids must align");
  std::vector<Key> keys;
  keys.reserve(shard.values.size());
  for (std::size_t i = 0; i < shard.values.size(); ++i) {
    keys.push_back(Key{hamming_distance(shard.values[i], query), shard.ids[i]});
  }
  return keys;
}

std::vector<std::vector<Key>> score_hamming_shards(const std::vector<ScalarShard>& shards,
                                                   Value query) {
  std::vector<std::vector<Key>> out;
  out.reserve(shards.size());
  for (const auto& shard : shards) out.push_back(score_hamming_shard(shard, query));
  return out;
}

std::vector<std::vector<Key>> quantize_scored_shards(std::vector<std::vector<Key>> shards,
                                                     unsigned drop_bits) {
  for (auto& shard : shards) {
    for (auto& key : shard) key.rank = quantize_rank(key.rank, drop_bits);
  }
  return shards;
}

std::vector<ShardIndex> make_shard_indexes(const std::vector<VectorShard>& shards,
                                           ScoringPolicy policy, std::size_t leaf_size) {
  std::vector<ShardIndex> indexes(shards.size());
  for (std::size_t m = 0; m < shards.size(); ++m) {
    const auto& shard = shards[m];
    DKNN_REQUIRE(shard.points.size() == shard.ids.size(), "shard points/ids must align");
    const bool eligible = !shard.points.empty() && shard.points[0].dim() >= 1;
    const bool tree =
        eligible && (policy == ScoringPolicy::Tree ||
                     (policy == ScoringPolicy::Auto &&
                      tree_pays_off(shard.points.size(), shard.points[0].dim())));
    if (tree) {
      indexes[m].tree = std::make_unique<KdRangeIndex>(
          std::span<const PointD>(shard.points), std::span<const PointId>(shard.ids), leaf_size);
    } else {
      indexes[m].flat =
          FlatStore(std::span<const PointD>(shard.points), std::span<const PointId>(shard.ids));
    }
  }
  return indexes;
}

TreeStats tree_stats(const std::vector<ShardIndex>& indexes) {
  TreeStats out;
  for (const ShardIndex& index : indexes) {
    if (index.has_tree()) out += index.tree->stats();
  }
  return out;
}

void reset_tree_stats(const std::vector<ShardIndex>& indexes) {
  for (const ShardIndex& index : indexes) {
    if (index.has_tree()) index.tree->reset_stats();
  }
}

namespace {

/// One (shard, query block) tile through the shard's policy path: the
/// kd-hybrid for a tree shard, the fused scan otherwise.
void score_tile(const ShardIndex& index, std::span<const PointD> queries, std::uint64_t ell,
                MetricKind kind, std::vector<std::vector<Key>>& keys, KernelScratch& scratch) {
  if (index.has_tree()) {
    hybrid_top_ell_batch(*index.tree, queries, static_cast<std::size_t>(ell), kind, keys,
                         scratch);
    return;
  }
  fused_top_ell_batch(index.store(), queries, static_cast<std::size_t>(ell), kind, keys,
                      scratch);
}

/// A live machine's tile: every live segment of its snapshot (delta
/// mirror and kd-hybrid segments included), merged.
void score_tile(const SnapshotPtr& snapshot, std::span<const PointD> queries,
                std::uint64_t ell, MetricKind kind, std::vector<std::vector<Key>>& keys,
                KernelScratch& scratch) {
  snapshot_top_ell_batch(*snapshot, queries, static_cast<std::size_t>(ell), kind, keys,
                         scratch);
}

/// The store a shard brute-scans, or null when the slab splitter must
/// treat it as opaque: a kd-tree shard's traversal is hierarchical, not a
/// row scan.
const FlatStore* scanned_store(const ShardIndex& index) {
  if (index.has_tree()) return nullptr;
  return &index.store();
}

/// Snapshots are opaque to the splitter: segmentation already bounds scan
/// length per segment, and compaction governs segment size.
const FlatStore* scanned_store(const SnapshotPtr&) { return nullptr; }

/// Whether a machine has data to score; only a skipped machine may lack it.
bool present(const ShardIndex&) { return true; }
bool present(const SnapshotPtr& snapshot) { return snapshot != nullptr; }

/// Smallest auto slab: kSlabRowsPerEll rows per heap entry, and never
/// below kMinSlabRows.  Every slab pays a fixed selection cost per query —
/// its first tile's sample seed, ~1.5ℓ heap visits and the final sort,
/// about 11 µs at ℓ = 64 and d = 8 on an AVX-512 box — plus its share of
/// the merge; smaller slabs spend more on that than the parallelism they
/// add saves (measured on 100k×d8 and 400k×d32 stores at 4 threads).
constexpr std::size_t kSlabRowsPerEll = 512;
constexpr std::size_t kMinSlabRows = 4096;

/// The one per-machine scorer behind both batch entries (`Source` is a
/// ShardIndex or a SnapshotPtr) — serial shard-outer below the parallel
/// threshold, otherwise tiled over the work-stealing pool.  Each task owns
/// disjoint pre-sized slots, so the assembled result is independent of the
/// steal schedule.  `skip` (empty = score every machine) marks machines
/// whose slots stay empty; skipped machines are opaque to the splitter and
/// are never touched.
///
/// Point-major tiling: on the pool path a machine whose
/// `scanned_store(source)` is a non-empty FlatStore (a brute-scanned shard)
/// is cut into row slabs, and each task scores one slab against the whole
/// query batch through fused_top_ell_ranges — the batched range kernel
/// loads each column once per register block of queries, so the batch
/// shares every column pass.  Auto slabs hold about
/// (all machines' scanned rows) ÷ (4 × threads) rows, but at least
/// 512·ℓ, so the pool gets up to ~4 tasks per worker to rebalance; an
/// explicit `shard_split_rows` sets the slab size and an explicit
/// `query_block` also cuts the batch.  Each slab's
/// local top-ℓ lists land in their own pre-sized slots and merge into the
/// machine's final [query][machine] slot after the barrier.  Merging is
/// byte-exact: keys are globally distinct, and any global top-ℓ key inside
/// a slab is by definition inside that slab's top-ℓ, so the ℓ smallest of
/// the concatenated slab winners equal the unsplit scan's answer (fuzzed
/// against the unsplit grid in tests/test_parity.cpp).
/// A null or empty `scanned_store(source)` marks a machine opaque
/// (tree-indexed shards, serve snapshots, skipped machines): it
/// is scored whole by `score_tile` in query blocks of about
/// Q ÷ (4 × threads).  The serial path scores every machine whole.
template <typename Source>
std::vector<std::vector<std::vector<Key>>> score_machines(
    std::span<const Source> sources, std::span<const PointD> queries, std::uint64_t ell,
    MetricKind kind, const BatchScoringConfig& config, std::span<const char> skip) {
  const std::size_t machines = sources.size();
  DKNN_REQUIRE(skip.empty() || skip.size() == machines,
               "scoring skip mask and machine count must align");
  const auto skipped = [skip](std::size_t m) { return !skip.empty() && skip[m] != 0; };
  for (std::size_t m = 0; m < machines; ++m) {
    DKNN_REQUIRE(skipped(m) || present(sources[m]), "scoring: null snapshot of a scored machine");
  }
  const auto score = [&](std::size_t m, std::span<const PointD> block,
                         std::vector<std::vector<Key>>& keys, KernelScratch& scratch) {
    if (skipped(m)) {
      keys.assign(block.size(), {});
      return;
    }
    score_tile(sources[m], block, ell, kind, keys, scratch);
  };
  std::vector<std::vector<std::vector<Key>>> out(queries.size());
  for (auto& per_shard : out) per_shard.resize(machines);
  if (queries.empty() || machines == 0) return out;

  ThreadPool* pool = config.pool;
  const std::size_t threads =
      pool != nullptr ? pool->thread_count()
      : config.threads != 0
          ? config.threads
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (pool == nullptr && threads <= 1) {
    // Serial: shard-outer, whole query block per shard (maximal cache
    // reuse); splitting would only add merge work on one thread.
    KernelScratch scratch;
    std::vector<std::vector<Key>> keys;
    for (std::size_t m = 0; m < machines; ++m) {
      score(m, queries, keys, scratch);
      for (std::size_t q = 0; q < queries.size(); ++q) out[q][m] = std::move(keys[q]);
    }
    return out;
  }

  std::unique_ptr<ThreadPool> owned;
  if (pool == nullptr) {
    owned = std::make_unique<ThreadPool>(threads, config.seed);
    pool = owned.get();
  }

  const std::size_t tasks_target = threads * 4;
  // Query blocks: opaque machines tile the batch (~4 tasks per worker);
  // slabs already give the pool its tasks, so they take the whole batch.
  const std::size_t opaque_block =
      config.query_block != 0
          ? config.query_block
          : std::max<std::size_t>(1, (queries.size() + tasks_target - 1) / tasks_target);
  const std::size_t slab_block = config.query_block != 0 ? config.query_block : queries.size();

  // stores[m] = the machine's scanned store (null = opaque); pieces_of[m]
  // = its slab count.  partials[m][piece][q] = slab's local top-ℓ for
  // query q (machines of two or more slabs only; the rest write out[q][m]
  // directly).  All slots are sized before any task runs.
  std::vector<const FlatStore*> stores(machines);
  std::size_t total_rows = 0;
  for (std::size_t m = 0; m < machines; ++m) {
    const FlatStore* store = skipped(m) ? nullptr : scanned_store(sources[m]);
    if (store != nullptr && !store->empty()) {
      stores[m] = store;
      total_rows += store->size();
    }
  }
  const std::size_t min_slab = std::max(
      kMinSlabRows,
      kSlabRowsPerEll * static_cast<std::size_t>(std::min<std::uint64_t>(ell, total_rows)));
  const std::size_t slab =
      config.shard_split_rows != 0
          ? config.shard_split_rows
          : std::max(min_slab, (total_rows + tasks_target - 1) / tasks_target);
  std::vector<std::size_t> pieces_of(machines, 1);
  std::vector<std::vector<std::vector<std::vector<Key>>>> partials(machines);
  for (std::size_t m = 0; m < machines; ++m) {
    if (stores[m] == nullptr) continue;
    pieces_of[m] = (stores[m]->size() + slab - 1) / slab;
    if (pieces_of[m] > 1) {
      partials[m].assign(pieces_of[m], std::vector<std::vector<Key>>(queries.size()));
    }
  }

  // A TaskGroup, not wait_idle(): several scoring batches (and background
  // compactions) may share this pool concurrently — the lock-free
  // KnnService read path does exactly that — and global quiescence would
  // make each batch wait on every other submitter's jobs (or starve under
  // sustained load).  The group waits for exactly this call's tiles.
  ThreadPool::TaskGroup tiles(*pool);
  for (std::size_t m = 0; m < machines; ++m) {
    const FlatStore* store = stores[m];
    const std::size_t block = store == nullptr ? opaque_block : slab_block;
    for (std::size_t q0 = 0; q0 < queries.size(); q0 += block) {
      const std::size_t len = std::min(block, queries.size() - q0);
      if (store == nullptr) {
        tiles.submit([&out, &score, queries, m, q0, len] {
          KernelScratch scratch;
          std::vector<std::vector<Key>> keys;
          score(m, queries.subspan(q0, len), keys, scratch);
          for (std::size_t i = 0; i < len; ++i) out[q0 + i][m] = std::move(keys[i]);
        });
        continue;
      }
      const std::size_t rows = store->size();
      const std::size_t pieces = pieces_of[m];
      for (std::size_t piece = 0; piece < pieces; ++piece) {
        // Balanced slabs: piece p covers [p·rows/pieces, (p+1)·rows/pieces).
        const RowRange slab_rows{piece * rows / pieces, (piece + 1) * rows / pieces};
        tiles.submit([&out, &partials, store, queries, ell, kind, m, pieces, piece, slab_rows,
                      q0, len] {
          KernelScratch scratch;
          std::vector<std::vector<Key>> keys;
          fused_top_ell_ranges(*store, std::span<const RowRange>(&slab_rows, 1),
                               queries.subspan(q0, len), static_cast<std::size_t>(ell), kind,
                               keys, scratch);
          for (std::size_t i = 0; i < len; ++i) {
            auto& slot = pieces == 1 ? out[q0 + i][m] : partials[m][piece][q0 + i];
            slot = std::move(keys[i]);
          }
        });
      }
    }
  }
  tiles.wait();

  // Merge pass for split machines: ℓ smallest of the concatenated slab
  // winners, per query.
  std::vector<Key> pooled;
  for (std::size_t m = 0; m < machines; ++m) {
    if (pieces_of[m] == 1) continue;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      pooled.clear();
      for (std::size_t piece = 0; piece < pieces_of[m]; ++piece) {
        const auto& part = partials[m][piece][q];
        pooled.insert(pooled.end(), part.begin(), part.end());
      }
      out[q][m] =
          top_ell_smallest(std::span<const Key>(pooled), static_cast<std::size_t>(ell));
    }
  }
  return out;
}

}  // namespace

std::vector<std::vector<std::vector<Key>>> score_vector_shards_batch(
    const std::vector<ShardIndex>& indexes, std::span<const PointD> queries, std::uint64_t ell,
    MetricKind kind, const BatchScoringConfig& config, std::span<const char> skip) {
  return score_machines(std::span<const ShardIndex>(indexes), queries, ell, kind, config, skip);
}

std::vector<std::vector<std::vector<Key>>> score_serve_snapshots_batch(
    std::span<const SnapshotPtr> snapshots, std::span<const PointD> queries, std::uint64_t ell,
    MetricKind kind, const BatchScoringConfig& config, std::span<const char> skip) {
  return score_machines(snapshots, queries, ell, kind, config, skip);
}

BatchRunResult run_knn_batch(const std::vector<std::vector<std::vector<Key>>>& scored_batch,
                             std::uint64_t ell, KnnAlgo algo, const EngineConfig& engine_config,
                             const KnnConfig& knn_config) {
  DKNN_REQUIRE(!scored_batch.empty(), "need at least one query");
  const std::size_t world = scored_batch.front().size();
  DKNN_REQUIRE(world > 0, "need at least one shard");
  for (const auto& per_shard : scored_batch) {
    DKNN_REQUIRE(per_shard.size() == world, "all queries must cover the same shards");
  }

  EngineConfig config = engine_config;
  config.world_size = static_cast<std::uint32_t>(world);
  Engine engine(config);
  std::vector<std::vector<Slot>> slots(scored_batch.size(), std::vector<Slot>(world));
  std::vector<std::vector<std::uint64_t>> rounds(scored_batch.size(),
                                                 std::vector<std::uint64_t>(world, 0));
  RunReport report = engine.run([&](Ctx& ctx) {
    return knn_batch_program(ctx, &scored_batch, ell, algo, knn_config, &slots, &rounds);
  });

  BatchRunResult result;
  result.per_query.reserve(scored_batch.size());
  for (std::size_t q = 0; q < scored_batch.size(); ++q) {
    GlobalRunResult one = merge_slots(std::move(slots[q]), RunReport{}, knn_config.leader);
    one.report.rounds = rounds[q][knn_config.leader];
    result.per_query.push_back(std::move(one));
  }
  result.report = std::move(report);
  return result;
}

const char* knn_algo_name(KnnAlgo algo) {
  switch (algo) {
    case KnnAlgo::DistKnn: return "algorithm-2";
    case KnnAlgo::CappedSelect: return "capped-select";
    case KnnAlgo::Simple: return "simple";
    case KnnAlgo::SaukasSong: return "saukas-song";
    case KnnAlgo::BinSearch: return "binary-search";
  }
  return "unknown";
}

GlobalRunResult run_knn(const std::vector<std::vector<Key>>& scored_shards, std::uint64_t ell,
                        KnnAlgo algo, const EngineConfig& engine_config,
                        const KnnConfig& knn_config) {
  DKNN_REQUIRE(!scored_shards.empty(), "need at least one shard");
  EngineConfig config = engine_config;
  config.world_size = static_cast<std::uint32_t>(scored_shards.size());
  Engine engine(config);
  std::vector<Slot> slots(scored_shards.size());
  RunReport report = engine.run([&](Ctx& ctx) {
    return knn_program(ctx, &scored_shards, ell, algo, knn_config, &slots);
  });
  return merge_slots(std::move(slots), std::move(report), knn_config.leader);
}

GlobalRunResult run_selection(const std::vector<std::vector<Key>>& key_shards, std::uint64_t ell,
                              const EngineConfig& engine_config,
                              const SelectConfig& select_config) {
  DKNN_REQUIRE(!key_shards.empty(), "need at least one shard");
  EngineConfig config = engine_config;
  config.world_size = static_cast<std::uint32_t>(key_shards.size());
  Engine engine(config);
  std::vector<Slot> slots(key_shards.size());
  RunReport report = engine.run([&](Ctx& ctx) {
    return select_program(ctx, &key_shards, ell, select_config, &slots);
  });
  return merge_slots(std::move(slots), std::move(report), select_config.leader);
}

QuantileResult run_quantile(const std::vector<std::vector<Key>>& key_shards, double phi,
                            const EngineConfig& engine_config,
                            const SelectConfig& select_config) {
  DKNN_REQUIRE(phi > 0.0 && phi <= 1.0, "quantile phi must be in (0, 1]");
  std::uint64_t total = 0;
  for (const auto& shard : key_shards) total += shard.size();
  DKNN_REQUIRE(total > 0, "quantile of an empty dataset");
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(phi * static_cast<double>(total))));

  QuantileResult result;
  result.rank = std::min(rank, total);
  result.total = total;
  result.run = run_selection(key_shards, result.rank, engine_config, select_config);
  DKNN_ASSERT(result.run.keys.size() == result.rank, "selection returned wrong count");
  result.value = result.run.keys.back();
  return result;
}

std::vector<Key> expected_smallest(const std::vector<std::vector<Key>>& shards,
                                   std::uint64_t ell) {
  std::vector<Key> all;
  for (const auto& shard : shards) all.insert(all.end(), shard.begin(), shard.end());
  return top_ell_smallest(std::span<const Key>(all), static_cast<std::size_t>(ell));
}

}  // namespace dknn
