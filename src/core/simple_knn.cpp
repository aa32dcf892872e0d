#include "core/simple_knn.hpp"

#include <algorithm>

#include "seq/select.hpp"
#include "sim/collectives.hpp"
#include "support/panic.hpp"

namespace dknn {

Task<SimpleKnnLocal> simple_knn(Ctx& ctx, std::vector<Key> local_scored, std::uint64_t ell,
                                SimpleKnnConfig config) {
  DKNN_REQUIRE(config.leader < ctx.world(), "leader id out of range");
  const std::uint32_t k = ctx.world();
  const bool is_leader = ctx.id() == config.leader;

  // Local ℓ-NN: ℓ smallest of the local scores (a copy when the kernels
  // already capped and sorted them, else a heap, O(n_i log ℓ)).
  local_scored =
      top_ell_smallest(std::span<const Key>(local_scored), static_cast<std::size_t>(ell));

  SimpleKnnLocal out;
  if (is_leader) {
    // Merge own + everyone's shipped candidates, take the ℓ best.
    std::vector<Key> pool = local_scored;
    if (k > 1) {
      auto shipments = co_await recv_n(ctx, tags::kSimpleShip, k - 1);
      for (const auto& env : shipments) {
        auto keys = from_bytes<std::vector<Key>>(env.payload);
        pool.insert(pool.end(), keys.begin(), keys.end());
      }
    }
    out.merged = top_ell_smallest(std::span<const Key>(pool), static_cast<std::size_t>(ell));
    if (config.announce_threshold) {
      // Threshold = worst accepted key; machines emit local keys <= it.
      SelFinished fin;
      fin.any = !out.merged.empty();
      if (fin.any) fin.bound = out.merged.back();
      for (MachineId m = 0; m < k; ++m) {
        if (m != config.leader) ctx.send_value(m, tags::kSimpleDone, fin);
      }
      if (fin.any) {
        const auto end =
            std::upper_bound(local_scored.begin(), local_scored.end(), fin.bound);
        out.selected.assign(local_scored.begin(), end);
      }
    }
    co_return out;
  }

  ctx.send_value(config.leader, tags::kSimpleShip, local_scored);
  if (config.announce_threshold) {
    const auto fin = co_await recv_value_from<SelFinished>(ctx, config.leader, tags::kSimpleDone);
    if (fin.any) {
      const auto end = std::upper_bound(local_scored.begin(), local_scored.end(), fin.bound);
      out.selected.assign(local_scored.begin(), end);
    }
  }
  co_return out;
}

}  // namespace dknn
