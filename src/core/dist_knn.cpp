#include "core/dist_knn.hpp"

#include <algorithm>
#include <cmath>

#include "rng/sampling.hpp"
#include "seq/select.hpp"
#include "sim/collectives.hpp"
#include "support/panic.hpp"

namespace dknn {
namespace {

/// Header preceding a machine's sample messages: how many samples follow
/// and how many keys survived the local-ℓ cap (for the global target).
struct SampleHeader {
  std::uint8_t attempt = 0;
  std::uint64_t samples = 0;
  std::uint64_t capped_count = 0;  ///< |S_i| = min(ℓ, n_i)
};

void encode(Writer& w, const SampleHeader& v) {
  w.put_u8(v.attempt);
  w.put_varint(v.samples);
  w.put_varint(v.capped_count);
}
SampleHeader decode_impl(Reader& r, std::type_identity<SampleHeader>) {
  SampleHeader v;
  v.attempt = r.get_u8();
  v.samples = r.get_varint();
  v.capped_count = r.get_varint();
  return v;
}

/// One sampled key (kept one-key-per-message so message complexity matches
/// the paper's O(k log ℓ) accounting of O(log n)-bit messages).
struct SampleMsg {
  std::uint8_t attempt = 0;
  Key key{};
};

void encode(Writer& w, const SampleMsg& v) {
  w.put_u8(v.attempt);
  encode(w, v.key);
}
SampleMsg decode_impl(Reader& r, std::type_identity<SampleMsg>) {
  SampleMsg v;
  v.attempt = r.get_u8();
  v.key = decode<Key>(r);
  return v;
}

/// Leader's broadcast after evaluating the pruning radius.
struct Decision {
  std::uint8_t attempt = 0;
  bool proceed = false;    ///< false = retry with fresh samples
  bool prune_ok = true;    ///< proceed with a known-lossy prune (Monte Carlo)
  std::uint64_t target = 0;      ///< ℓ clamped to the total capped count
  std::uint64_t candidates = 0;  ///< Σ surviving candidates
};

void encode(Writer& w, const Decision& v) {
  w.put_u8(v.attempt);
  w.put_bool(v.proceed);
  w.put_bool(v.prune_ok);
  w.put_varint(v.target);
  w.put_varint(v.candidates);
}
Decision decode_impl(Reader& r, std::type_identity<Decision>) {
  Decision v;
  v.attempt = r.get_u8();
  v.proceed = r.get_bool();
  v.prune_ok = r.get_bool();
  v.target = r.get_varint();
  v.candidates = r.get_varint();
  return v;
}

/// Radius broadcast: `none` means "no pruning" (no samples existed, or the
/// retry budget was exhausted and we fall back to the always-correct path).
struct Radius {
  std::uint8_t attempt = 0;
  bool none = false;
  Key key{};
};

void encode(Writer& w, const Radius& v) {
  w.put_u8(v.attempt);
  w.put_bool(v.none);
  encode(w, v.key);
}
Radius decode_impl(Reader& r, std::type_identity<Radius>) {
  Radius v;
  v.attempt = r.get_u8();
  v.none = r.get_bool();
  v.key = decode<Key>(r);
  return v;
}

}  // namespace

std::uint64_t knn_sample_count(std::uint64_t ell, const KnnConfig& config) {
  const double l = static_cast<double>(std::max<std::uint64_t>(ell, 2));
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(config.sample_coeff * std::log(l))));
}

std::uint64_t knn_radius_rank(std::uint64_t ell, const KnnConfig& config) {
  const double l = static_cast<double>(std::max<std::uint64_t>(ell, 2));
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(config.rank_coeff * std::log(l))));
}

Task<KnnLocal> dist_knn(Ctx& ctx, std::vector<Key> local_scored, std::uint64_t ell,
                        KnnConfig config) {
  DKNN_REQUIRE(config.leader < ctx.world(), "leader id out of range");
  const std::uint32_t k = ctx.world();
  const bool is_leader = ctx.id() == config.leader;

  // Step 2: keep only the local ℓ best ("a single machine can hold at most
  // all the ℓ-NN points").  The fused kernels already hand over at most ℓ
  // keys, ascending, so top_ell_smallest copies them after one O(ℓ)
  // check; any other input takes its O(n_i log ℓ) heap.  Either way the
  // result is sorted for the sampling/pruning steps below.
  std::vector<Key> capped =
      top_ell_smallest(std::span<const Key>(local_scored), static_cast<std::size_t>(ell));
  local_scored.clear();
  local_scored.shrink_to_fit();
  DKNN_REQUIRE(std::adjacent_find(capped.begin(), capped.end()) == capped.end(),
               "scored keys must be distinct (use unique point ids)");

  const std::uint64_t want_samples = knn_sample_count(ell, config);

  KnnLocal out;
  for (std::uint32_t attempt = 0;; ++attempt) {
    DKNN_ASSERT(attempt <= config.max_retries, "retry loop exceeded its budget");
    const auto attempt_tag = static_cast<std::uint8_t>(attempt & 0xFF);
    // After the retry budget, fall back to "no pruning": always correct,
    // just a larger instance for Algorithm 1 (at most kℓ keys).
    const bool prune_this_attempt = attempt < config.max_retries;

    // --- Steps 3-4: sample and ship to the leader -------------------------
    const std::uint64_t samples_here =
        prune_this_attempt ? std::min<std::uint64_t>(want_samples, capped.size()) : 0;
    std::vector<Key> my_samples;
    if (samples_here > 0) {
      my_samples = sample_without_replacement(std::span<const Key>(capped),
                                              static_cast<std::size_t>(samples_here), ctx.rng());
    }

    Radius radius;
    if (is_leader) {
      std::vector<Key> pool = my_samples;
      std::uint64_t total_capped = capped.size();
      if (k > 1) {
        auto headers = co_await recv_n(ctx, tags::kKnnSampleHeader, k - 1);
        std::uint64_t expected = 0;
        for (const auto& env : headers) {
          const auto header = from_bytes<SampleHeader>(env.payload);
          DKNN_ASSERT(header.attempt == attempt_tag, "stale sample header");
          expected += header.samples;
          total_capped += header.capped_count;
        }
        auto sample_msgs =
            co_await recv_n(ctx, tags::kKnnSample, static_cast<std::size_t>(expected));
        for (const auto& env : sample_msgs) {
          const auto msg = from_bytes<SampleMsg>(env.payload);
          DKNN_ASSERT(msg.attempt == attempt_tag, "stale sample");
          pool.push_back(msg.key);
        }
      }

      // --- Step 5: radius = sample at rank 21·ln ℓ --------------------------
      if (pool.empty() || !prune_this_attempt) {
        radius.none = true;
      } else {
        std::sort(pool.begin(), pool.end());
        const std::uint64_t rank = std::min<std::uint64_t>(knn_radius_rank(ell, config),
                                                           pool.size());  // 1-indexed
        radius.key = pool[static_cast<std::size_t>(rank - 1)];
      }
      radius.attempt = attempt_tag;
      for (MachineId m = 0; m < k; ++m) {
        if (m != config.leader) ctx.send_value(m, tags::kKnnRadius, radius);
      }

      // --- Steps 6-7: count survivors, decide --------------------------------
      const std::uint64_t target = std::min<std::uint64_t>(ell, total_capped);
      const auto end = radius.none
                           ? capped.end()
                           : std::upper_bound(capped.begin(), capped.end(), radius.key);
      const auto my_survivors = static_cast<std::uint64_t>(end - capped.begin());
      std::uint64_t survivors = my_survivors;
      if (k > 1) {
        auto counts = co_await recv_n(ctx, tags::kKnnCount, k - 1);
        for (const auto& env : counts) survivors += from_bytes<std::uint64_t>(env.payload);
      }

      Decision decision;
      decision.attempt = attempt_tag;
      decision.target = target;
      decision.candidates = survivors;
      if (survivors >= target) {
        decision.proceed = true;
        decision.prune_ok = true;
      } else if (config.las_vegas) {
        decision.proceed = false;  // resample (Lemma 2.3 failed low)
      } else {
        decision.proceed = true;   // Monte Carlo: press on, flag the loss
        decision.prune_ok = false;
      }
      for (MachineId m = 0; m < k; ++m) {
        if (m != config.leader) ctx.send_value(m, tags::kKnnDecision, decision);
      }
      if (!decision.proceed) {
        ++out.attempts;
        continue;
      }
      out.prune_ok = decision.prune_ok;
      out.candidates = decision.candidates;

      std::vector<Key> survivors_local(capped.begin(), end);
      SelectLocal sel = co_await dist_select(ctx, std::move(survivors_local), decision.target,
                                             SelectConfig{config.leader});
      out.selected = std::move(sel.selected);
      out.select_iterations = sel.iterations;
      co_return out;
    }

    // ----------------------------- follower side ---------------------------
    SampleHeader header;
    header.attempt = attempt_tag;
    header.samples = samples_here;
    header.capped_count = capped.size();
    ctx.send_value(config.leader, tags::kKnnSampleHeader, header);
    for (const Key& key : my_samples) {
      ctx.send_value(config.leader, tags::kKnnSample, SampleMsg{attempt_tag, key});
    }

    radius = co_await recv_value_from<Radius>(ctx, config.leader, tags::kKnnRadius);
    DKNN_ASSERT(radius.attempt == attempt_tag, "stale radius");
    const auto end = radius.none ? capped.end()
                                 : std::upper_bound(capped.begin(), capped.end(), radius.key);
    ctx.send_value(config.leader, tags::kKnnCount,
                   static_cast<std::uint64_t>(end - capped.begin()));

    const auto decision =
        co_await recv_value_from<Decision>(ctx, config.leader, tags::kKnnDecision);
    DKNN_ASSERT(decision.attempt == attempt_tag, "stale decision");
    if (!decision.proceed) {
      ++out.attempts;
      continue;
    }
    out.prune_ok = decision.prune_ok;
    out.candidates = decision.candidates;

    std::vector<Key> survivors_local(capped.begin(), end);
    SelectLocal sel = co_await dist_select(ctx, std::move(survivors_local), decision.target,
                                           SelectConfig{config.leader});
    out.selected = std::move(sel.selected);
    out.select_iterations = sel.iterations;
    co_return out;
  }
}

}  // namespace dknn
