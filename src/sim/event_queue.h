#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "sim/inline_callback.h"
#include "sim/time.h"

namespace adattl::sim {

/// Opaque handle to a scheduled event, usable to cancel it.
///
/// A handle encodes (slot + 1, low 32 bits of the event's seq): slots are
/// recycled through a free list once their event fires or is cancelled,
/// and every event gets a fresh seq, so a stale handle (for an event that
/// already fired or was cancelled) matches a newer event in its slot only
/// if 2^32 schedules separate the two — it is otherwise ignored by
/// cancel().
struct EventHandle {
  std::uint64_t id = 0;

  friend bool operator==(EventHandle a, EventHandle b) { return a.id == b.id; }
  explicit operator bool() const { return id != 0; }
};

/// Priority queue of timestamped callbacks with stable FIFO ordering among
/// events scheduled for the same instant (ties break by insertion order,
/// which keeps simulations deterministic for a fixed seed).
///
/// Built for the simulation's steady-state churn (pop one event, schedule
/// its successor) with up to ~10^5 events pending, where a single heap
/// over every event misses cache on each sift level. The queue has two
/// tiers:
///  * a **bucket tier**: an *epoch* splits [start, start + span) into
///    equal-width time buckets, and events past the epoch's end wait in an
///    unsorted *far* list. Buckets and the far list are intrusive doubly
///    linked lists threaded through the slot table, so a schedule is O(1)
///    and touches one list head;
///  * an **open-bucket heap**: a 4-ary hole-sift heap of 24-byte
///    (time, seq, slot) keys holding only the events of the bucket that is
///    open now — a few entries in steady state. When it empties, the next
///    non-empty bucket is moved into it; when every bucket is used up, a
///    new epoch is built from the far list.
///
/// Order: within an epoch, an event's bucket position
/// d = (t - start) / width is monotone in t and decides its tier, so every
/// event in the heap is strictly earlier than every event in a later
/// bucket, and those are strictly earlier than every far event; equal
/// timestamps always share a tier. The heap orders by (time, seq), so the
/// firing order is exactly (time, seq), whatever the bucket width.
///
/// Epoch rule (derived, no tuning knob): the new epoch starts at the far
/// list's earliest time and spans twice the mean distance from that
/// start, taken over the far events within twice the plain mean; it has
/// one bucket per kEventsPerBucket of those events. Using a mean rather than the max,
/// and trimming it, keeps a few far-future outliers from piling the near
/// events into one bucket. By Markov's inequality at least a quarter of
/// the far events land in buckets, so each event is rescanned O(1) times
/// amortised. After the queue runs empty, schedules wait in the far list
/// until the next pop, so an epoch is sized from every event scheduled
/// before it, not only the first.
///
/// Callbacks live in a slot table recycled through a free list, so memory
/// is bounded by the maximum number of *live* events; callbacks are SBO
/// `InlineCallback`s, so scheduling a kernel-sized capture performs zero
/// heap allocations once the vectors reach reserve()d capacity. A slot is
/// one 64-byte cache line: key, links and callback are fetched together.
/// The queue calls a callback's prefetch hook when its bucket opens and
/// again just before the event ahead of it runs, so the data the callback
/// will touch is on its way while earlier events still run.
///
/// cancel() removes the event eagerly — an O(1) unlink from a bucket or
/// the far list, an O(log n) removal from the heap — so the queue only
/// ever holds live events and pop() never skips.
class EventQueue {
 public:
  using Callback = InlineCallback;

  /// Schedules `cb` at absolute time `at`. Precondition: `at` must not be
  /// in the past relative to the last popped event (checked by Simulator).
  EventHandle schedule(SimTime at, Callback cb);

  /// Cancels a pending event. Returns true if the event was still pending.
  bool cancel(EventHandle h);

  /// True if no live events remain.
  bool empty() const { return size_ == 0; }

  /// Number of live (non-cancelled, not yet fired) events.
  std::size_t size() const { return size_; }

  /// Timestamp of the earliest live event. Precondition: !empty().
  SimTime next_time() const;

  /// Removes and returns the earliest live event. Precondition: !empty().
  std::pair<SimTime, Callback> pop();

  /// Pre-sizes the heap, slot table and bucket array for `n` concurrent
  /// events so that schedules, pops and epoch rebuilds with at most n
  /// events pending allocate nothing.
  void reserve(std::size_t n);

  // ---- Kernel health (always-on, trivially cheap) ----
  /// Largest number of simultaneously live events seen so far — how close
  /// the run came to the reserve() sizing.
  std::size_t peak_size() const { return peak_size_; }
  /// Successful cancel() calls since construction.
  std::uint64_t cancels() const { return cancels_; }

 private:
  friend struct EventQueueTestPeer;  // tests/event_queue_peer.h

  // Heap entries carry only the ordering key plus the slot index; the
  // callback never moves during sifts.
  struct HeapItem {
    SimTime time;
    std::uint64_t seq;   // tie-breaker: lower seq fires first
    std::uint32_t slot;  // index into slots_
  };

  // One cache line. While the slot is in a bucket or the far list, prev
  // and next are the list links: a list's first slot has
  // prev == kHeadTag | list (list = bucket index or kFarList), and every
  // far-list slot carries kFarBit in next. While it is in the heap, prev
  // is its heap index and next == kInHeap; a free slot has next == kFree.
  struct alignas(64) Slot {
    SimTime time = 0.0;
    std::uint64_t seq = 0;  // tie-breaker; its low word is the handle's check
    std::uint32_t prev = kNil;
    std::uint32_t next = kFree;
    Callback cb;
  };
  static_assert(sizeof(Slot) == 64 && alignof(Slot) == 64, "a slot is one cache line");

  static constexpr std::uint32_t kNil = 0x7fffffffu;  // end of a list
  static constexpr std::uint32_t kInHeap = kNil - 1;
  static constexpr std::uint32_t kFree = kNil - 2;
  static constexpr std::uint32_t kFarBit = 0x80000000u;
  static constexpr std::uint32_t kHeadTag = 0x80000000u;
  static constexpr std::uint32_t kFarList = kNil;
  // Events per bucket when an epoch starts.
  static constexpr std::size_t kEventsPerBucket = 2;
  // Buckets past the one being opened whose head slots refill() prefetches.
  static constexpr std::size_t kPrefetchBuckets = 4;

  // Heap ordering: earliest time first, then earliest seq.
  static bool later(const HeapItem& a, const HeapItem& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);

  // Tiers.
  void place(std::uint32_t slot);
  void link(std::uint32_t slot, std::uint32_t list);
  void unlink(std::uint32_t slot);
  std::uint32_t& head_of(std::uint32_t list) {
    return list == kFarList ? far_head_ : buckets_[list];
  }
  std::uint32_t take_far();  // detaches the far list, returns its head
  SimTime far_min() const;
  // Calls f(slot) on each of the `count` far slots: along the list from
  // `head`, or by scanning the slot table when most slots are far.
  template <typename F>
  void for_each_far(std::uint32_t head, std::size_t count, F&& f) const;
  void refill();
  void start_epoch();

  // Open-bucket heap.
  void heap_push(std::uint32_t slot);
  void remove_at(std::size_t pos);
  void sift_up_hole(std::size_t hole, const HeapItem& item);
  void sift_down_hole(std::size_t hole, const HeapItem& item);

  std::vector<HeapItem> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 1;
  std::size_t size_ = 0;
  std::size_t peak_size_ = 0;
  std::uint64_t cancels_ = 0;

  // Epoch: bucket of time t is floor(d), d = (t - epoch_start_) * inv_width_.
  // d < open_limit_ goes to the heap, d >= epoch_limit_ to the far list.
  std::vector<std::uint32_t> buckets_;  // list heads
  std::size_t next_bucket_ = 0;         // first bucket not yet opened
  SimTime epoch_start_ = 0.0;
  double inv_width_ = 1.0;
  double open_limit_ = 0.0;
  double epoch_limit_ = 0.0;
  std::uint64_t epochs_ = 0;  // epochs started, for tests

  // Far list, with its count, time sum and earliest time for the next
  // epoch. A cancel can leave far_min_ below the true minimum; far_min()
  // then recomputes it.
  std::uint32_t far_head_ = kNil;
  std::size_t far_count_ = 0;
  double far_sum_ = 0.0;
  mutable SimTime far_min_ = std::numeric_limits<SimTime>::infinity();
  mutable bool far_min_stale_ = false;
};

}  // namespace adattl::sim
