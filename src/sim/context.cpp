#include "sim/context.hpp"

namespace dknn {

namespace {

/// last_seq_ value before a source's first delivery; sequence numbers count
/// up from 0 and never reach it.
constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};

}  // namespace

void Ctx::send(MachineId dst, Tag tag, Bytes payload) {
  Envelope env;
  env.src = id_;
  env.dst = dst;
  env.tag = tag;
  env.payload = std::move(payload);
  outbox_.push_back(std::move(env));
}

Ctx::TagQueue* Ctx::find_queue(Tag tag) {
  for (TagQueue& queue : mailbox_) {
    if (queue.tag == tag) return &queue;
  }
  return nullptr;
}

Envelope Ctx::take_at(TagQueue& queue, std::size_t pos) {
  Envelope env = std::move(queue.slots[pos].env);
  queue.slots[pos].arrival = kTaken;
  --mailbox_size_;
  while (queue.head < queue.slots.size() && queue.slots[queue.head].arrival == kTaken) {
    ++queue.head;
  }
  if (queue.head == queue.slots.size()) {
    queue.slots.clear();
    queue.head = 0;
  }
  return env;
}

std::optional<Envelope> Ctx::try_take(Tag tag) {
  TagQueue* queue = find_queue(tag);
  if (queue == nullptr || queue->slots.empty()) return std::nullopt;
  return take_at(*queue, queue->head);
}

std::optional<Envelope> Ctx::try_take_any(std::span<const Tag> tags) {
  TagQueue* best = nullptr;
  for (Tag tag : tags) {
    TagQueue* queue = find_queue(tag);
    if (queue == nullptr || queue->slots.empty()) continue;
    if (best == nullptr ||
        queue->slots[queue->head].arrival < best->slots[best->head].arrival) {
      best = queue;
    }
  }
  if (best == nullptr) return std::nullopt;
  return take_at(*best, best->head);
}

std::optional<Envelope> Ctx::try_take_from(MachineId src, Tag tag) {
  TagQueue* queue = find_queue(tag);
  if (queue == nullptr) return std::nullopt;
  for (std::size_t pos = queue->head; pos < queue->slots.size(); ++pos) {
    const Queued& slot = queue->slots[pos];
    if (slot.arrival != kTaken && slot.env.src == src) return take_at(*queue, pos);
  }
  return std::nullopt;
}

void Ctx::engine_deliver(std::vector<Envelope> delivered) {
  if (last_seq_.empty() && !delivered.empty()) last_seq_.assign(world_, kNoSeq);
  for (auto& env : delivered) {
    // At-most-once: drop network-level duplicates (same src + seq as the
    // message just before it on that link) so a mail-parked machine is
    // only woken by genuinely new messages.
    if (env.src < last_seq_.size()) {
      if (last_seq_[env.src] == env.seq) continue;
      last_seq_[env.src] = env.seq;
    }
    mail_arrived_ = true;
    TagQueue* queue = find_queue(env.tag);
    if (queue == nullptr) queue = &mailbox_.emplace_back(TagQueue{env.tag, 0, {}});
    queue->slots.push_back(Queued{next_arrival_++, std::move(env)});
    ++mailbox_size_;
  }
}

std::vector<Envelope> Ctx::engine_take_outbox() {
  std::vector<Envelope> out;
  out.swap(outbox_);
  return out;
}

}  // namespace dknn
