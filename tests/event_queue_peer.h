// Read-only view of EventQueue internals for the kernel tests: which tier
// holds an event, and how many epochs the bucket tier has started.
#pragma once

#include <cstdint>

#include "sim/event_queue.h"

namespace adattl::sim {

struct EventQueueTestPeer {
  enum class Tier { kNone, kHeap, kBucket, kFar };

  /// Tier of a pending event; kNone for a fired, cancelled or null handle.
  static Tier tier(const EventQueue& q, EventHandle h) {
    const auto slot = static_cast<std::uint32_t>(h.id >> 32);
    if (h.id == 0 || slot >= q.slots_.size()) return Tier::kNone;
    const EventQueue::Slot& s = q.slots_[slot];
    if (s.gen != static_cast<std::uint32_t>(h.id) || s.pos == EventQueue::kFreePos) {
      return Tier::kNone;
    }
    if (s.pos == EventQueue::kInBucket) return Tier::kBucket;
    if (s.pos == EventQueue::kInFar) return Tier::kFar;
    return Tier::kHeap;
  }

  static std::uint64_t epochs(const EventQueue& q) { return q.epochs_; }
};

}  // namespace adattl::sim
