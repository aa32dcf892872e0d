// Tests for src/sim: coroutine task composition, round-barrier semantics,
// engine lifecycle, collectives, executor equivalence, cost accounting, and
// failure handling.
//
// Machine programs are written as free coroutine functions taking (Ctx&,
// args...) — parameters are copied into the coroutine frame, so the factory
// lambda that creates them can stay a plain (non-coroutine) function.

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/fault.hpp"
#include "sim/collectives.hpp"
#include "sim/context.hpp"
#include "sim/cost_model.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "support/panic.hpp"

namespace dknn {
namespace {

EngineConfig basic_config(std::uint32_t k) {
  EngineConfig c;
  c.world_size = k;
  c.seed = 7;
  c.measure_compute = false;  // deterministic round counts in assertions
  return c;
}

// --- trivial programs -------------------------------------------------------

Task<void> noop_program(Ctx&) { co_return; }

TEST(Engine, SingleMachineNoopFinishesInOneRound) {
  Engine engine(basic_config(1));
  const RunReport report = engine.run([](Ctx& ctx) { return noop_program(ctx); });
  EXPECT_EQ(report.rounds, 1u);
  EXPECT_EQ(report.traffic.messages_sent(), 0u);
}

Task<void> wait_rounds_program(Ctx& ctx, std::uint64_t rounds, std::vector<std::uint64_t>* seen) {
  for (std::uint64_t i = 0; i < rounds; ++i) {
    (*seen)[ctx.id()] = ctx.current_round();
    co_await ctx.round();
  }
}

TEST(Engine, RoundNumbersAdvanceByOne) {
  auto config = basic_config(3);
  std::vector<std::uint64_t> seen(3, 0);
  Engine engine(config);
  const RunReport report =
      engine.run([&seen](Ctx& ctx) { return wait_rounds_program(ctx, 5, &seen); });
  // 5 barriers -> machine last observed round 4; engine ran 6 supersteps
  // (the 6th resumes-to-completion).
  EXPECT_EQ(report.rounds, 6u);
  for (std::uint64_t r : seen) EXPECT_EQ(r, 4u);
}

// --- messaging ---------------------------------------------------------------

Task<void> ping_pong(Ctx& ctx, std::vector<std::uint64_t>* out) {
  if (ctx.id() == 0) {
    ctx.send_value<std::uint64_t>(1, 1, 41);
    const auto reply = co_await recv_value<std::uint64_t>(ctx, 2);
    (*out)[0] = reply;
  } else {
    const auto v = co_await recv_value<std::uint64_t>(ctx, 1);
    ctx.send_value<std::uint64_t>(0, 2, v + 1);
    (*out)[1] = v;
  }
}

TEST(Engine, PingPongValuesAndRounds) {
  std::vector<std::uint64_t> out(2, 0);
  Engine engine(basic_config(2));
  const RunReport report = engine.run([&out](Ctx& ctx) { return ping_pong(ctx, &out); });
  EXPECT_EQ(out[1], 41u);
  EXPECT_EQ(out[0], 42u);
  EXPECT_EQ(report.traffic.messages_sent(), 2u);
  // round 0: m0 sends; round 1: m1 receives, replies; round 2: m0 receives.
  EXPECT_EQ(report.rounds, 3u);
}

Task<void> two_same_tag(Ctx& ctx, std::vector<std::uint64_t>* out) {
  if (ctx.id() == 0) {
    ctx.send_value<std::uint64_t>(1, 5, 10);
    ctx.send_value<std::uint64_t>(1, 5, 20);
  } else {
    const auto a = co_await recv_value<std::uint64_t>(ctx, 5);
    const auto b = co_await recv_value<std::uint64_t>(ctx, 5);
    (*out)[0] = a;
    (*out)[1] = b;
  }
}

TEST(Engine, RecvConsumesInFifoOrder) {
  std::vector<std::uint64_t> out(2, 0);
  Engine engine(basic_config(2));
  (void)engine.run([&out](Ctx& ctx) { return two_same_tag(ctx, &out); });
  EXPECT_EQ(out[0], 10u);
  EXPECT_EQ(out[1], 20u);
}

// --- nested task composition ---------------------------------------------------

Task<std::uint64_t> helper_waits(Ctx& ctx, std::uint64_t base) {
  co_await ctx.round();
  co_await ctx.round();
  co_return base + ctx.current_round();
}

Task<void> nested_program(Ctx& ctx, std::vector<std::uint64_t>* out) {
  const std::uint64_t first = co_await helper_waits(ctx, 100);
  const std::uint64_t second = co_await helper_waits(ctx, 1000);
  (*out)[ctx.id()] = first + second;
}

TEST(Engine, NestedTasksSuspendAcrossRounds) {
  std::vector<std::uint64_t> out(2, 0);
  Engine engine(basic_config(2));
  const RunReport report = engine.run([&out](Ctx& ctx) { return nested_program(ctx, &out); });
  // helper 1 finishes at round 2 (returns 102), helper 2 at round 4 (1004).
  EXPECT_EQ(out[0], 1106u);
  EXPECT_EQ(out[1], 1106u);
  EXPECT_EQ(report.rounds, 5u);
}

Task<std::uint64_t> deep_nest(Ctx& ctx, int depth) {
  if (depth == 0) {
    co_await ctx.round();
    co_return 1;
  }
  const std::uint64_t below = co_await deep_nest(ctx, depth - 1);
  co_return below + 1;
}

Task<void> deep_nest_program(Ctx& ctx, std::vector<std::uint64_t>* out) {
  (*out)[ctx.id()] = co_await deep_nest(ctx, 50);
}

TEST(Engine, DeeplyNestedTasksWork) {
  std::vector<std::uint64_t> out(1, 0);
  Engine engine(basic_config(1));
  (void)engine.run([&out](Ctx& ctx) { return deep_nest_program(ctx, &out); });
  EXPECT_EQ(out[0], 51u);
}

// --- exceptions ------------------------------------------------------------------

Task<void> throwing_program(Ctx& ctx) {
  if (ctx.id() == 1) {
    co_await ctx.round();
    throw std::runtime_error("machine 1 exploded");
  }
  co_await ctx.round();
  co_await ctx.round();
}

TEST(Engine, MachineExceptionPropagates) {
  Engine engine(basic_config(3));
  try {
    (void)engine.run([](Ctx& ctx) { return throwing_program(ctx); });
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "machine 1 exploded");
  }
}

Task<std::uint64_t> throwing_helper(Ctx& ctx) {
  co_await ctx.round();
  throw std::runtime_error("helper failed");
}

Task<void> catching_program(Ctx& ctx, std::vector<std::uint64_t>* out) {
  try {
    (*out)[ctx.id()] = co_await throwing_helper(ctx);
  } catch (const std::runtime_error&) {
    (*out)[ctx.id()] = 77;  // exception crossed the task boundary correctly
  }
}

TEST(Engine, NestedExceptionCatchableInParent) {
  std::vector<std::uint64_t> out(2, 0);
  Engine engine(basic_config(2));
  (void)engine.run([&out](Ctx& ctx) { return catching_program(ctx, &out); });
  EXPECT_EQ(out[0], 77u);
  EXPECT_EQ(out[1], 77u);
}

// --- deadlock / round cap ---------------------------------------------------------

Task<void> waits_forever(Ctx& ctx) {
  if (ctx.id() == 0) {
    (void)co_await recv(ctx, 99);  // nobody ever sends tag 99
  }
  co_return;
}

TEST(Engine, RoundCapThrowsSimError) {
  auto config = basic_config(2);
  config.max_rounds = 100;
  Engine engine(config);
  EXPECT_THROW((void)engine.run([](Ctx& ctx) { return waits_forever(ctx); }), SimError);
}

TEST(Engine, DroppedMessageBecomesSimErrorNotHang) {
  auto config = basic_config(2);
  config.max_rounds = 50;
  Engine engine(config);
  FaultPlan plan;
  plan.drop_probability = 1.0;
  FaultInjector injector(engine.network(), plan, 3);
  std::vector<std::uint64_t> out(2, 0);
  EXPECT_THROW((void)engine.run([&out](Ctx& ctx) { return ping_pong(ctx, &out); }), SimError);
  EXPECT_GE(injector.drops(), 1u);
}

// --- collectives -------------------------------------------------------------------

Task<void> broadcast_program(Ctx& ctx, std::vector<std::uint64_t>* out) {
  const std::uint64_t v = co_await broadcast<std::uint64_t>(ctx, 0, 1, ctx.id() == 0 ? 123 : 0);
  (*out)[ctx.id()] = v;
}

class CollectivesSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CollectivesSweep, BroadcastReachesEveryone) {
  const std::uint32_t k = GetParam();
  std::vector<std::uint64_t> out(k, 0);
  Engine engine(basic_config(k));
  const RunReport report = engine.run([&out](Ctx& ctx) { return broadcast_program(ctx, &out); });
  for (std::uint64_t v : out) EXPECT_EQ(v, 123u);
  EXPECT_EQ(report.traffic.messages_sent(), k - 1);
}

Task<void> gather_program(Ctx& ctx, std::vector<std::uint64_t>* out) {
  const auto values = co_await gather<std::uint64_t>(ctx, 0, 1, ctx.id() * 10);
  if (ctx.id() == 0) {
    (*out)[0] = std::accumulate(values.begin(), values.end(), std::uint64_t{0});
  }
}

TEST_P(CollectivesSweep, GatherCollectsAllContributions) {
  const std::uint32_t k = GetParam();
  std::vector<std::uint64_t> out(k, 0);
  Engine engine(basic_config(k));
  const RunReport report = engine.run([&out](Ctx& ctx) { return gather_program(ctx, &out); });
  EXPECT_EQ(out[0], 10ULL * k * (k - 1) / 2);
  EXPECT_EQ(report.traffic.messages_sent(), k - 1);
}

Task<void> reduce_program(Ctx& ctx, std::vector<std::uint64_t>* out) {
  const std::uint64_t m = co_await reduce<std::uint64_t>(
      ctx, 0, 1, ctx.id() + 1, [](std::uint64_t a, std::uint64_t b) { return a > b ? a : b; });
  (*out)[ctx.id()] = m;
}

TEST_P(CollectivesSweep, ReduceMaxAtRoot) {
  const std::uint32_t k = GetParam();
  std::vector<std::uint64_t> out(k, 0);
  Engine engine(basic_config(k));
  (void)engine.run([&out](Ctx& ctx) { return reduce_program(ctx, &out); });
  EXPECT_EQ(out[0], k);  // max of 1..k
}

Task<void> all_gather_program(Ctx& ctx, std::vector<std::uint64_t>* out) {
  const auto values = co_await all_gather<std::uint64_t>(ctx, 0, 10, ctx.id());
  std::uint64_t sum = 0;
  for (std::uint64_t v : values) sum += v;
  (*out)[ctx.id()] = sum;
}

TEST_P(CollectivesSweep, AllGatherGivesEveryoneEverything) {
  const std::uint32_t k = GetParam();
  std::vector<std::uint64_t> out(k, 0);
  Engine engine(basic_config(k));
  (void)engine.run([&out](Ctx& ctx) { return all_gather_program(ctx, &out); });
  for (std::uint64_t v : out) EXPECT_EQ(v, static_cast<std::uint64_t>(k) * (k - 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, CollectivesSweep, ::testing::Values(1u, 2u, 3u, 5u, 8u, 16u, 33u));

// --- chunked bandwidth end-to-end ---------------------------------------------------

Task<void> big_transfer(Ctx& ctx, std::size_t words, std::vector<std::uint64_t>* out) {
  if (ctx.id() == 0) {
    std::vector<std::uint64_t> payload(words, 9);
    ctx.send_value(1, 1, payload);
  } else {
    const auto payload = co_await recv_value<std::vector<std::uint64_t>>(ctx, 1);
    (*out)[1] = payload.size();
  }
}

TEST(Engine, ChunkedTransferTakesProportionalRounds) {
  auto config = basic_config(2);
  config.bandwidth = BandwidthPolicy::Chunked;
  config.bits_per_round = 64;
  Engine engine(config);
  std::vector<std::uint64_t> out(2, 0);
  constexpr std::size_t kWords = 100;
  const RunReport report =
      engine.run([&out](Ctx& ctx) { return big_transfer(ctx, kWords, &out); });
  EXPECT_EQ(out[1], kWords);
  // payload = varint length (1-2 bytes) + 100*8 bytes = ~6400 bits -> ~100 rounds.
  EXPECT_GE(report.rounds, kWords);
  EXPECT_LE(report.rounds, kWords + 5);
}

// --- executor equivalence ------------------------------------------------------------

Task<void> mixed_workload(Ctx& ctx, std::vector<std::uint64_t>* out) {
  // Use randomness, messaging, and nesting; result must be identical under
  // both executors.
  std::uint64_t acc = ctx.rng().below(1000);
  const auto values = co_await all_gather<std::uint64_t>(ctx, 0, 1, acc);
  std::uint64_t sum = 0;
  for (std::uint64_t v : values) sum += v;
  co_await ctx.round();
  const std::uint64_t extra = co_await helper_waits(ctx, sum);
  (*out)[ctx.id()] = extra;
}

TEST(Engine, ParallelExecutorMatchesSequential) {
  constexpr std::uint32_t k = 8;
  std::vector<std::uint64_t> seq_out(k, 0), par_out(k, 0);

  auto config = basic_config(k);
  Engine seq_engine(config);
  const RunReport seq_report =
      seq_engine.run([&seq_out](Ctx& ctx) { return mixed_workload(ctx, &seq_out); });

  config.parallel = true;
  config.threads = 4;
  Engine par_engine(config);
  const RunReport par_report =
      par_engine.run([&par_out](Ctx& ctx) { return mixed_workload(ctx, &par_out); });

  EXPECT_EQ(seq_out, par_out);
  EXPECT_EQ(seq_report.rounds, par_report.rounds);
  EXPECT_EQ(seq_report.traffic.messages_sent(), par_report.traffic.messages_sent());
  EXPECT_EQ(seq_report.traffic.bits_sent(), par_report.traffic.bits_sent());
}

// --- cost model -----------------------------------------------------------------------

TEST(CostModel, LatencyDominatedRun) {
  RunReport report;
  report.rounds = 100;
  report.critical_path_comp_ns = 50'000;  // 50 µs
  CostModelConfig config;
  config.alpha_us = 25.0;
  const SimCost cost = bsp_cost(report, config);
  EXPECT_NEAR(cost.latency_sec, 100 * 25e-6, 1e-12);
  EXPECT_NEAR(cost.compute_sec, 50e-6, 1e-12);
  EXPECT_NEAR(cost.total_sec, cost.latency_sec + cost.compute_sec, 1e-15);
}

TEST(CostModel, ComputeScale) {
  RunReport report;
  report.rounds = 1;
  report.critical_path_comp_ns = 1'000'000'000;  // 1 s
  CostModelConfig config;
  config.alpha_us = 0.0;
  config.compute_scale = 0.5;
  EXPECT_NEAR(bsp_cost(report, config).total_sec, 0.5, 1e-12);
}

TEST(Engine, MeasuredComputeIsPositiveWhenEnabled) {
  auto config = basic_config(2);
  config.measure_compute = true;
  Engine engine(config);
  std::vector<std::uint64_t> out(2, 0);
  const RunReport report = engine.run([&out](Ctx& ctx) { return ping_pong(ctx, &out); });
  EXPECT_GT(report.critical_path_comp_ns, 0u);
  EXPECT_GE(report.total_comp_ns, report.critical_path_comp_ns);
  EXPECT_EQ(report.round_max_comp_ns.size(), report.rounds);
}

// --- mailbox semantics -------------------------------------------------------------------
//
// The mailbox keeps one FIFO per tag and stamps every delivery with an
// arrival number; these tests pin the observable order that replaces the
// old single scanned queue.

/// Builds deliveries for a Ctx under test: each source's messages carry
/// distinct, increasing sequence numbers (as the network stamps them), and
/// the payload is `value`.
class Mail {
 public:
  Mail& add(MachineId src, Tag tag, std::uint64_t value) {
    Envelope env;
    env.src = src;
    env.dst = 0;
    env.tag = tag;
    env.payload = to_bytes(value);
    env.seq = next_seq_[src]++;
    batch_.push_back(std::move(env));
    return *this;
  }
  std::vector<Envelope> take() { return std::exchange(batch_, {}); }

 private:
  std::vector<Envelope> batch_;
  std::vector<std::uint64_t> next_seq_ = std::vector<std::uint64_t>(8, 0);
};

std::uint64_t value_of(const std::optional<Envelope>& env) {
  if (!env) throw std::runtime_error("expected a message");
  return from_bytes<std::uint64_t>(env->payload);
}

TEST(Mailbox, TryTakeAnyReturnsEarliestArrivalAcrossTags) {
  Ctx ctx(0, 4, Rng(1));
  Mail mail;
  mail.add(1, 20, 100).add(2, 10, 101).add(3, 20, 102);
  ctx.engine_deliver(mail.take());
  mail.add(2, 30, 103).add(1, 10, 104);
  ctx.engine_deliver(mail.take());

  // The order of `tags` never matters; arrival order decides.
  const std::vector<Tag> forward = {10, 20, 30};
  const std::vector<Tag> backward = {30, 20, 10};
  EXPECT_EQ(value_of(ctx.try_take_any(backward)), 100u);
  EXPECT_EQ(value_of(ctx.try_take_any(forward)), 101u);
  EXPECT_EQ(value_of(ctx.try_take_any(backward)), 102u);
  // A later delivery batch arrives after every earlier one.
  const std::vector<Tag> only_10_30 = {10, 30};
  EXPECT_EQ(value_of(ctx.try_take_any(only_10_30)), 103u);
  EXPECT_EQ(value_of(ctx.try_take_any(only_10_30)), 104u);
  EXPECT_FALSE(ctx.try_take_any(forward).has_value());
  const std::vector<Tag> unknown = {99};
  EXPECT_FALSE(ctx.try_take_any(unknown).has_value());
}

TEST(Mailbox, TryTakeFromSkipsOtherSendersAndKeepsPerSenderFifo) {
  Ctx ctx(0, 4, Rng(1));
  Mail mail;
  mail.add(1, 5, 10).add(2, 5, 20).add(1, 5, 11).add(3, 5, 30).add(2, 5, 21).add(2, 6, 90);
  ctx.engine_deliver(mail.take());

  EXPECT_EQ(value_of(ctx.try_take_from(2, 5)), 20u);
  EXPECT_EQ(value_of(ctx.try_take_from(2, 5)), 21u);
  EXPECT_FALSE(ctx.try_take_from(2, 5).has_value());  // sender 2's tag-6 mail is not tag 5
  EXPECT_EQ(value_of(ctx.try_take(5)), 10u);           // the oldest remaining tag-5 message
  EXPECT_EQ(value_of(ctx.try_take_from(3, 5)), 30u);   // taken from behind sender 1's
  EXPECT_EQ(value_of(ctx.try_take(5)), 11u);
  EXPECT_FALSE(ctx.try_take(5).has_value());
  EXPECT_EQ(value_of(ctx.try_take_from(2, 6)), 90u);
}

TEST(Mailbox, SizeStaysExactAcrossMixedTakes) {
  Ctx ctx(0, 4, Rng(1));
  Mail mail;
  EXPECT_EQ(ctx.mailbox_size(), 0u);
  for (std::uint64_t i = 0; i < 12; ++i) {
    mail.add(static_cast<MachineId>(1 + i % 3), static_cast<Tag>(1 + i % 2), i);
  }
  ctx.engine_deliver(mail.take());
  EXPECT_EQ(ctx.mailbox_size(), 12u);
  (void)ctx.try_take(1);
  EXPECT_EQ(ctx.mailbox_size(), 11u);
  (void)ctx.try_take_from(3, 2);
  EXPECT_EQ(ctx.mailbox_size(), 10u);
  (void)ctx.try_take_from(3, 7);  // no such tag: nothing taken
  EXPECT_EQ(ctx.mailbox_size(), 10u);
  const std::vector<Tag> both = {2, 1};
  (void)ctx.try_take_any(both);
  EXPECT_EQ(ctx.mailbox_size(), 9u);
  mail.add(1, 1, 50).add(2, 3, 51);
  ctx.engine_deliver(mail.take());
  EXPECT_EQ(ctx.mailbox_size(), 11u);
  std::size_t drained = 0;
  while (ctx.try_take_any(both)) ++drained;
  while (ctx.try_take(3)) ++drained;
  EXPECT_EQ(drained, 11u);
  EXPECT_EQ(ctx.mailbox_size(), 0u);
  // A drained mailbox takes new mail as before.
  mail.add(2, 1, 60);
  ctx.engine_deliver(mail.take());
  EXPECT_EQ(ctx.mailbox_size(), 1u);
  EXPECT_EQ(value_of(ctx.try_take(1)), 60u);
}

constexpr Tag kFloodTag = 9;
constexpr Tag kSignalTag = 7;
constexpr std::uint64_t kFloodRounds = 6;
constexpr std::uint64_t kFloodPerRound = 200;
constexpr std::uint64_t kSignalRound = 3;

/// Machines 1.. flood machine 0 with kFloodTag mail every round and send one
/// kSignalTag message in round kSignalRound; machine 0 blocks in recv_n on
/// the signal tag, then drains the flood.
Task<void> flood_program(Ctx& ctx, std::uint64_t* woke_round, std::size_t* mail_at_wake,
                         std::size_t* flood_drained, bool* flood_fifo) {
  if (ctx.id() != 0) {
    for (std::uint64_t r = 0; r < kFloodRounds; ++r) {
      for (std::uint64_t i = 0; i < kFloodPerRound; ++i) {
        ctx.send_value<std::uint64_t>(0, kFloodTag, r * kFloodPerRound + i);
      }
      if (r == kSignalRound) ctx.send_value<std::uint64_t>(0, kSignalTag, ctx.id());
      co_await ctx.round();
    }
    co_return;
  }
  const auto signals = co_await recv_n(ctx, kSignalTag, ctx.world() - 1);
  *woke_round = ctx.current_round();
  *mail_at_wake = ctx.mailbox_size();
  co_await skip_rounds(ctx, kFloodRounds);  // let the rest of the flood land
  std::vector<std::uint64_t> last(ctx.world(), 0);
  std::vector<bool> any(ctx.world(), false);
  *flood_fifo = signals.size() == ctx.world() - 1;
  while (auto env = ctx.try_take(kFloodTag)) {
    const auto v = from_bytes<std::uint64_t>(env->payload);
    if (any[env->src] && v != last[env->src] + 1) *flood_fifo = false;
    any[env->src] = true;
    last[env->src] = v;
    ++*flood_drained;
  }
}

TEST(Mailbox, RecvNIsNotStarvedByAFloodOfAnotherTag) {
  constexpr std::uint32_t k = 5;
  for (const bool parallel : {false, true}) {
    auto config = basic_config(k);
    config.parallel = parallel;
    config.threads = 4;
    Engine engine(config);
    std::uint64_t woke_round = 0;
    std::size_t mail_at_wake = 0;
    std::size_t flood_drained = 0;
    bool flood_fifo = false;
    (void)engine.run([&](Ctx& ctx) {
      return flood_program(ctx, &woke_round, &mail_at_wake, &flood_drained, &flood_fifo);
    });
    // Sent in round kSignalRound, delivered at the start of the next: the
    // machine wakes in exactly that round, with the flood still queued.
    EXPECT_EQ(woke_round, kSignalRound + 1) << "parallel " << parallel;
    EXPECT_EQ(mail_at_wake, (k - 1) * kFloodPerRound * (kSignalRound + 1))
        << "parallel " << parallel;
    EXPECT_EQ(flood_drained, (k - 1) * kFloodPerRound * kFloodRounds) << "parallel " << parallel;
    EXPECT_TRUE(flood_fifo) << "parallel " << parallel;
  }
}

// --- misc engine invariants -------------------------------------------------------------

TEST(Engine, WorldSizeZeroRejected) {
  EngineConfig config;
  config.world_size = 0;
  EXPECT_THROW(Engine{config}, InvariantError);
}

Task<void> staggered_finish(Ctx& ctx) {
  for (std::uint32_t i = 0; i < ctx.id(); ++i) co_await ctx.round();
}

TEST(Engine, MachinesMayFinishAtDifferentRounds) {
  Engine engine(basic_config(5));
  const RunReport report = engine.run([](Ctx& ctx) { return staggered_finish(ctx); });
  // slowest machine (id 4) needs 4 barriers + final resume = 5 supersteps.
  EXPECT_EQ(report.rounds, 5u);
}

}  // namespace
}  // namespace dknn
