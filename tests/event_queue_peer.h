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
    const std::uint64_t key = h.id >> 32;
    if (key == 0 || key > q.slots_.size()) return Tier::kNone;
    const EventQueue::Slot& s = q.slots_[key - 1];
    if (s.next == EventQueue::kFree ||
        static_cast<std::uint32_t>(s.seq) != static_cast<std::uint32_t>(h.id)) {
      return Tier::kNone;
    }
    if (s.next == EventQueue::kInHeap) return Tier::kHeap;
    return (s.next & EventQueue::kFarBit) ? Tier::kFar : Tier::kBucket;
  }

  /// Slot-table index a handle names (live or stale).
  static std::uint32_t slot(EventHandle h) { return static_cast<std::uint32_t>((h.id >> 32) - 1); }

  static std::uintptr_t slot_table_address(const EventQueue& q) {
    return reinterpret_cast<std::uintptr_t>(q.slots_.data());
  }

  static constexpr std::size_t kSlotSize = sizeof(EventQueue::Slot);
  static constexpr std::size_t kSlotAlign = alignof(EventQueue::Slot);

  static std::uint64_t epochs(const EventQueue& q) { return q.epochs_; }
};

}  // namespace adattl::sim
