#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>

namespace adattl::sim {

namespace {

// 4-ary heap indexing. Four children of a 24-byte entry span 96 bytes —
// at most two cache lines per sift level, versus three levels' worth of
// scattered lines for a binary heap of the same size.
constexpr std::size_t kArity = 4;

constexpr std::size_t parent_of(std::size_t i) { return (i - 1) / kArity; }
constexpr std::size_t first_child_of(std::size_t i) { return kArity * i + 1; }

constexpr SimTime kInfinity = std::numeric_limits<SimTime>::infinity();

}  // namespace

void EventQueue::reserve(std::size_t n) {
  heap_.reserve(n);
  slots_.reserve(n);
  free_slots_.reserve(n);
  buckets_.reserve(n / kEventsPerBucket + 1);
}

std::uint32_t EventQueue::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t s = free_slots_.back();
    free_slots_.pop_back();
    return s;
  }
  assert(slots_.size() < kFree && "slot index would collide with link markers");
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.cb.reset();
  s.next = kFree;
  free_slots_.push_back(slot);
}

EventHandle EventQueue::schedule(SimTime at, Callback cb) {
  assert(cb && "cannot schedule an empty callback");
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.cb = std::move(cb);
  s.time = at;
  s.seq = next_seq_++;
  // slot + 1 keeps every handle non-zero.
  const EventHandle handle{((static_cast<std::uint64_t>(slot) + 1) << 32) |
                           static_cast<std::uint32_t>(s.seq)};
  if (size_++ == 0) {
    // Empty queue: gather events in the far list until the next pop, so
    // the next epoch is sized from all of them rather than the first.
    next_bucket_ = buckets_.size();
    open_limit_ = -kInfinity;
    epoch_limit_ = -kInfinity;
  }
  if (size_ > peak_size_) peak_size_ = size_;
  place(slot);
  return handle;
}

bool EventQueue::cancel(EventHandle h) {
  const std::uint64_t key = h.id >> 32;
  if (key == 0 || key > slots_.size()) return false;
  const auto slot = static_cast<std::uint32_t>(key - 1);
  const Slot& s = slots_[slot];
  // A recycled slot holds a later event with another seq, so a stale
  // handle mismatches.
  if (s.next == kFree || static_cast<std::uint32_t>(s.seq) != static_cast<std::uint32_t>(h.id)) {
    return false;
  }
  const bool in_heap = s.next == kInHeap;
  if (in_heap) {
    remove_at(s.prev);
  } else {
    unlink(slot);
  }
  release_slot(slot);
  ++cancels_;
  if (--size_ != 0 && in_heap && heap_.empty()) refill();
  return true;
}

SimTime EventQueue::next_time() const {
  assert(size_ != 0);
  return heap_.empty() ? far_min() : heap_.front().time;
}

std::pair<SimTime, EventQueue::Callback> EventQueue::pop() {
  assert(size_ != 0);
  if (heap_.empty()) refill();
  const HeapItem top = heap_.front();
  Callback cb = std::move(slots_[top.slot].cb);
  release_slot(top.slot);
  remove_at(0);
  if (--size_ != 0) {
    if (heap_.empty()) refill();
    // Start the next event's cache misses while this one runs.
    slots_[heap_.front().slot].cb.prefetch();
  }
  return {top.time, std::move(cb)};
}

// ---- Bucket tier ----

void EventQueue::place(std::uint32_t slot) {
  // One expression classifies every event of an epoch, so the bucket
  // index is the same monotone function of time everywhere.
  const double d = (slots_[slot].time - epoch_start_) * inv_width_;
  if (d < open_limit_) {
    heap_push(slot);
  } else if (d < epoch_limit_) {
    link(slot, static_cast<std::uint32_t>(d));
  } else {
    link(slot, kFarList);
  }
}

void EventQueue::link(std::uint32_t slot, std::uint32_t list) {
  Slot& s = slots_[slot];
  std::uint32_t& head = head_of(list);
  s.prev = kHeadTag | list;
  s.next = head;
  if (head != kNil) slots_[head].prev = slot;
  head = slot;
  if (list == kFarList) {
    s.next |= kFarBit;
    ++far_count_;
    far_sum_ += s.time;
    if (s.time < far_min_) far_min_ = s.time;
  }
}

void EventQueue::unlink(std::uint32_t slot) {
  const Slot& s = slots_[slot];
  const std::uint32_t next = s.next & ~kFarBit;
  if (next != kNil) slots_[next].prev = s.prev;
  if (s.prev & kHeadTag) {
    head_of(s.prev & ~kHeadTag) = next;
  } else {
    slots_[s.prev].next = s.next;  // same list, so the same kFarBit
  }
  if (s.next & kFarBit) {
    if (--far_count_ == 0) {
      take_far();
    } else {
      far_sum_ -= s.time;
      if (s.time <= far_min_) far_min_stale_ = true;
    }
  }
}

std::uint32_t EventQueue::take_far() {
  const std::uint32_t head = far_head_;
  far_head_ = kNil;
  far_count_ = 0;
  far_sum_ = 0.0;
  far_min_ = kInfinity;
  far_min_stale_ = false;
  return head;
}

template <typename F>
void EventQueue::for_each_far(std::uint32_t head, std::size_t count, F&& f) const {
  if (count * 4 >= slots_.size()) {
    // Mostly live table: stream through it in memory order rather than
    // chase the list one dependent cache miss at a time.
    const auto n = static_cast<std::uint32_t>(slots_.size());
    for (std::uint32_t s = 0; s < n; ++s) {
      if (slots_[s].next & kFarBit) f(s);
    }
  } else {
    for (std::uint32_t s = head; s != kNil;) {
      const std::uint32_t next = slots_[s].next & ~kFarBit;
      f(s);
      s = next;
    }
  }
}

SimTime EventQueue::far_min() const {
  if (far_min_stale_) {
    far_min_ = kInfinity;
    for_each_far(far_head_, far_count_, [this](std::uint32_t s) {
      far_min_ = std::min(far_min_, slots_[s].time);
    });
    far_min_stale_ = false;
  }
  return far_min_;
}

void EventQueue::refill() {
  // Precondition: the heap is empty and some event is pending.
  for (;;) {
    while (next_bucket_ < buckets_.size()) {
      std::uint32_t s = buckets_[next_bucket_];
      buckets_[next_bucket_++] = kNil;
      if (s == kNil) continue;
      open_limit_ = static_cast<double>(next_bucket_);
      // The next buckets open a few pops from now: start their first
      // slots' cache misses early.
      const std::size_t ahead = std::min(buckets_.size(), next_bucket_ + kPrefetchBuckets);
      for (std::size_t b = next_bucket_; b < ahead; ++b) {
        if (buckets_[b] != kNil) __builtin_prefetch(&slots_[buckets_[b]]);
      }
      while (s != kNil) {
        const Slot& slot = slots_[s];
        const std::uint32_t next = slot.next;
        slot.cb.prefetch();
        heap_push(s);
        s = next;
      }
      return;
    }
    start_epoch();
    if (!heap_.empty()) return;
  }
}

void EventQueue::start_epoch() {
  // Precondition: the heap and every bucket are empty; the far list is not.
  // The epoch spans twice the mean offset from the earliest far event,
  // taken over the events within twice the plain mean, so that a few
  // far-future outliers cannot stretch the buckets.
  const SimTime start = far_min();
  const double cut = 2.0 * (far_sum_ / static_cast<double>(far_count_) - start);
  double near_sum = 0.0;
  std::size_t near_count = 0;
  for_each_far(far_head_, far_count_, [&](std::uint32_t s) {
    const double offset = slots_[s].time - start;
    if (offset < cut) {
      near_sum += offset;
      ++near_count;
    }
  });
  const std::size_t n_buckets = std::max<std::size_t>(1, near_count / kEventsPerBucket);
  const double span = 2.0 * near_sum / static_cast<double>(near_count);
  const double inv_width = static_cast<double>(n_buckets) / span;
  // All far events at one instant leave no spread to size buckets by;
  // any positive width is correct, so keep the last one.
  if (span > 0.0 && inv_width > 0.0 && inv_width < kInfinity) inv_width_ = inv_width;
  ++epochs_;
  epoch_start_ = start;
  buckets_.assign(n_buckets, kNil);
  next_bucket_ = 0;
  open_limit_ = 0.0;
  epoch_limit_ = static_cast<double>(n_buckets);

  // Bucket order within a list is irrelevant: the heap sorts by (time, seq).
  const std::size_t count = far_count_;
  for_each_far(take_far(), count, [this](std::uint32_t s) { place(s); });
  if (far_count_ != count) return;

  // No event reached a bucket, which takes non-finite times: order the
  // whole far list in the heap and send every later schedule there too.
  open_limit_ = kInfinity;
  for_each_far(take_far(), count, [this](std::uint32_t s) { heap_push(s); });
}

// ---- Open-bucket heap ----

void EventQueue::heap_push(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.next = kInHeap;
  const HeapItem item{s.time, s.seq, slot};
  heap_.push_back(item);
  sift_up_hole(heap_.size() - 1, item);
}

void EventQueue::remove_at(std::size_t pos) {
  const std::size_t last = heap_.size() - 1;
  if (pos == last) {
    heap_.pop_back();
    return;
  }
  const HeapItem item = heap_[last];
  heap_.pop_back();
  // Re-insert the displaced tail entry at the hole; it may need to travel
  // either direction when the hole came from a cancel mid-heap.
  if (pos > 0 && later(heap_[parent_of(pos)], item)) {
    sift_up_hole(pos, item);
  } else {
    sift_down_hole(pos, item);
  }
}

void EventQueue::sift_up_hole(std::size_t hole, const HeapItem& item) {
  // Hole insertion: shift ancestors down one move each until `item` fits,
  // then write it once — no three-move swaps, no slot updates for `item`
  // until its final position is known.
  while (hole > 0) {
    const std::size_t parent = parent_of(hole);
    if (!later(heap_[parent], item)) break;
    heap_[hole] = heap_[parent];
    slots_[heap_[hole].slot].prev = static_cast<std::uint32_t>(hole);
    hole = parent;
  }
  heap_[hole] = item;
  slots_[item.slot].prev = static_cast<std::uint32_t>(hole);
}

void EventQueue::sift_down_hole(std::size_t hole, const HeapItem& item) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = first_child_of(hole);
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = std::min(first + kArity, n);
    for (std::size_t c = first + 1; c < end; ++c) {
      if (later(heap_[best], heap_[c])) best = c;
    }
    if (!later(item, heap_[best])) break;
    heap_[hole] = heap_[best];
    slots_[heap_[hole].slot].prev = static_cast<std::uint32_t>(hole);
    hole = best;
  }
  heap_[hole] = item;
  slots_[item.slot].prev = static_cast<std::uint32_t>(hole);
}

}  // namespace adattl::sim
