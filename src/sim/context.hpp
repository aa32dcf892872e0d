#pragma once
/// \file context.hpp
/// \brief Per-machine execution context: the API a machine program sees.
///
/// A `Ctx` is the machine's window onto the k-machine model: its identity,
/// its private random stream (paper §1.1: each machine has a private source
/// of random bits), a mailbox of delivered messages, and the round barrier.
/// Machine programs must not share state except through messages — the
/// thread-pool executor relies on this (and the sequential executor makes
/// violations reproducible).

#include <coroutine>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/types.hpp"
#include "rng/rng.hpp"
#include "serial/codec.hpp"

namespace dknn {

class Engine;

/// Awaiter for `co_await ctx.round()`: parks the (innermost) coroutine and
/// returns control to the engine until the next superstep.
struct RoundBarrier;

/// Awaiter for `co_await ctx.mail_round()`: like RoundBarrier, but the
/// engine skips resuming the machine until a round in which at least one
/// new message was delivered to it.  Observationally equivalent for code
/// that only inspects the mailbox (all receive helpers), and turns long
/// bandwidth-limited waits from O(rounds) resumes into O(deliveries).
struct MailBarrier;

class Ctx {
public:
  Ctx(MachineId id, std::uint32_t world, Rng rng)
      : id_(id), world_(world), rng_(std::move(rng)) {}

  Ctx(const Ctx&) = delete;
  Ctx& operator=(const Ctx&) = delete;
  Ctx(Ctx&&) = default;
  Ctx& operator=(Ctx&&) = default;

  [[nodiscard]] MachineId id() const { return id_; }
  [[nodiscard]] std::uint32_t world() const { return world_; }
  [[nodiscard]] std::uint64_t current_round() const { return round_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  /// Queues a message for the end-of-round exchange.
  void send(MachineId dst, Tag tag, Bytes payload);

  /// Typed convenience: encodes `value` with the serial codec.
  template <typename T>
  void send_value(MachineId dst, Tag tag, const T& value) {
    send(dst, tag, to_bytes(value));
  }

  /// Removes and returns the first mailbox message with `tag`, if any.
  [[nodiscard]] std::optional<Envelope> try_take(Tag tag);

  /// Removes and returns the first mailbox message with `tag` from `src`.
  [[nodiscard]] std::optional<Envelope> try_take_from(MachineId src, Tag tag);

  /// Removes and returns the first mailbox message whose tag is in `tags`
  /// (arrival order decides among multiple matches).
  [[nodiscard]] std::optional<Envelope> try_take_any(std::span<const Tag> tags);

  /// Number of undelivered mailbox messages (diagnostics/tests).
  [[nodiscard]] std::size_t mailbox_size() const { return mailbox_size_; }

  /// Round barrier; `co_await ctx.round()` resumes at the next superstep.
  [[nodiscard]] RoundBarrier round();

  /// Mail barrier; `co_await ctx.mail_round()` resumes at the next
  /// superstep in which new mail was delivered to this machine.
  [[nodiscard]] MailBarrier mail_round();

  // --- engine-side interface (not for machine programs) ---------------------
  void engine_deliver(std::vector<Envelope> delivered);
  [[nodiscard]] std::vector<Envelope> engine_take_outbox();
  void engine_set_round(std::uint64_t round) { round_ = round; }
  void engine_set_resume(std::coroutine_handle<> h, bool wait_for_mail = false) {
    resume_point_ = h;
    mail_wait_ = wait_for_mail;
  }
  [[nodiscard]] std::coroutine_handle<> engine_take_resume() {
    auto h = resume_point_;
    resume_point_ = nullptr;
    mail_wait_ = false;
    mail_arrived_ = false;
    return h;
  }
  [[nodiscard]] bool engine_has_resume() const { return resume_point_ != nullptr; }
  /// True when the machine should run this superstep (not parked on mail,
  /// or mail has arrived since it parked).
  [[nodiscard]] bool engine_runnable() const {
    return resume_point_ != nullptr && (!mail_wait_ || mail_arrived_);
  }
  [[nodiscard]] bool engine_mail_parked() const { return mail_wait_; }

private:
  MachineId id_;
  std::uint32_t world_;
  Rng rng_;
  std::uint64_t round_ = 0;
  /// A delivered message and its arrival number (a per-machine counter in
  /// delivery order).  A taken slot is marked with kTaken.
  struct Queued {
    std::uint64_t arrival = 0;
    Envelope env;
  };
  static constexpr std::uint64_t kTaken = ~std::uint64_t{0};

  /// One FIFO per tag: the slots in [head, size) in arrival order, taken
  /// ones marked.  `head` always rests on an untaken slot or the end, so
  /// try_take is O(1) and try_take_any compares one arrival number per
  /// requested tag.  A drained queue is cleared in place and keeps its
  /// capacity for the next round's mail.
  struct TagQueue {
    Tag tag = 0;
    std::size_t head = 0;
    std::vector<Queued> slots;
  };

  /// The queue for `tag`, or nullptr if that tag never had mail.
  [[nodiscard]] TagQueue* find_queue(Tag tag);
  /// Moves out the envelope at `queue.slots[pos]` and marks the slot taken.
  [[nodiscard]] Envelope take_at(TagQueue& queue, std::size_t pos);

  /// The mailbox, indexed by tag.  Protocols use a handful of tags, so the
  /// lookup is a linear scan of this short list.
  std::vector<TagQueue> mailbox_;
  std::size_t mailbox_size_ = 0;
  std::uint64_t next_arrival_ = 0;
  /// At-most-once delivery: the last sequence number delivered from each
  /// source.  A network-level duplicate (FaultAction::Duplicate) is queued
  /// directly behind its original on the same directed link FIFO, and
  /// every sender's seq is unique, so a repeat is exactly a message whose
  /// seq equals the last one seen from its source — it still burned link
  /// bandwidth in transit, but machine programs never observe it.  A
  /// delayed message may arrive after higher seqs from the same source; it
  /// differs from the last seq and is delivered.  Delayed messages are
  /// never duplicated (one fault action per message).
  std::vector<std::uint64_t> last_seq_;
  std::vector<Envelope> outbox_;
  std::coroutine_handle<> resume_point_ = nullptr;
  bool mail_wait_ = false;     ///< parked on a MailBarrier
  bool mail_arrived_ = false;  ///< delivery happened since parking
};

struct RoundBarrier {
  Ctx* ctx;
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const noexcept { ctx->engine_set_resume(h); }
  void await_resume() const noexcept {}
};

struct MailBarrier {
  Ctx* ctx;
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const noexcept {
    ctx->engine_set_resume(h, /*wait_for_mail=*/true);
  }
  void await_resume() const noexcept {}
};

inline RoundBarrier Ctx::round() { return RoundBarrier{this}; }
inline MailBarrier Ctx::mail_round() { return MailBarrier{this}; }

}  // namespace dknn
