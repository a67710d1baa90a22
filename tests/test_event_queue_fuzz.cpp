// Differential fuzzing of the two-tier EventQueue against a trivially
// correct reference implementation (std::multimap ordered by (time, seq)).
// Random interleavings of schedule / cancel / pop must produce identical
// event sequences — this is the backbone the whole simulation's
// determinism rests on.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <optional>
#include <set>

#include "event_queue_peer.h"
#include "sim/event_queue.h"
#include "sim/random.h"

namespace adattl::sim {
namespace {

/// Reference queue: multimap keyed by (time, seq) with lazy cancellation.
class ReferenceQueue {
 public:
  std::uint64_t schedule(double time) {
    const std::uint64_t id = next_id_++;
    live_.emplace(std::make_pair(time, id), id);
    ids_.insert({id, time});
    return id;
  }

  bool cancel(std::uint64_t id) {
    const auto it = ids_.find(id);
    if (it == ids_.end()) return false;
    live_.erase(std::make_pair(it->second, id));
    ids_.erase(it);
    return true;
  }

  bool empty() const { return live_.empty(); }
  std::size_t size() const { return live_.size(); }

  /// Pops the earliest event, returning (time, id).
  std::pair<double, std::uint64_t> pop() {
    const auto it = live_.begin();
    const std::pair<double, std::uint64_t> out{it->first.first, it->second};
    ids_.erase(it->second);
    live_.erase(it);
    return out;
  }

 private:
  std::map<std::pair<double, std::uint64_t>, std::uint64_t> live_;
  std::map<std::uint64_t, double> ids_;
  std::uint64_t next_id_ = 1;
};

class EventQueueFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueFuzz, MatchesReferenceUnderRandomOps) {
  RngStream rng(GetParam());
  EventQueue dut;
  ReferenceQueue ref;

  // Parallel id maps: op sequences address events by a shared index.
  std::vector<std::optional<EventHandle>> dut_handles;
  std::vector<std::optional<std::uint64_t>> ref_ids;
  std::vector<double> scheduled_time;
  // Tag each scheduled event so pops can be compared by identity: the
  // reference assigns sequential ids in schedule order, so ref id == tag+1.
  std::vector<int> popped_tags_dut;

  double clock = 0.0;  // popped-time watermark; schedules stay >= clock

  for (int step = 0; step < 30000; ++step) {
    const double roll = rng.next_double();
    if (roll < 0.5) {
      // Schedule at a time at/after the watermark; duplicates likely.
      const double t = clock + std::floor(rng.uniform(0.0, 16.0));  // integer offsets: many ties
      const int tag = static_cast<int>(dut_handles.size());
      dut_handles.push_back(dut.schedule(t, [tag, &popped_tags_dut] {
        popped_tags_dut.push_back(tag);
      }));
      ref_ids.push_back(ref.schedule(t));
      scheduled_time.push_back(t);
    } else if (roll < 0.65 && !dut_handles.empty()) {
      // Cancel a random (possibly already-fired/cancelled) event.
      const std::size_t idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(dut_handles.size()) - 1));
      bool dut_ok = false;
      if (dut_handles[idx]) {
        dut_ok = dut.cancel(*dut_handles[idx]);
        dut_handles[idx].reset();
      }
      bool ref_ok = false;
      if (ref_ids[idx]) {
        ref_ok = ref.cancel(*ref_ids[idx]);
        ref_ids[idx].reset();
      }
      ASSERT_EQ(dut_ok, ref_ok) << "step " << step;
    } else if (!dut.empty()) {
      ASSERT_FALSE(ref.empty());
      const auto [ref_t, ref_id] = ref.pop();
      ASSERT_DOUBLE_EQ(dut.next_time(), ref_t);
      auto [t, cb] = dut.pop();
      clock = t;
      cb();
      // Identity: both queues must have popped the *same* event.
      ASSERT_EQ(static_cast<std::uint64_t>(popped_tags_dut.back()) + 1, ref_id)
          << "step " << step;
    }
    ASSERT_EQ(dut.size(), ref.size()) << "step " << step;
  }

  // Drain both and compare identity end-to-end.
  while (!dut.empty()) {
    ASSERT_FALSE(ref.empty());
    const auto [ref_t, ref_id] = ref.pop();
    auto [t, cb] = dut.pop();
    ASSERT_DOUBLE_EQ(t, ref_t);
    cb();
    ASSERT_EQ(static_cast<std::uint64_t>(popped_tags_dut.back()) + 1, ref_id);
  }
  EXPECT_TRUE(ref.empty());

  // FIFO-within-timestamp: the DUT's pop order must be globally stable —
  // tags with equal times must appear in increasing tag order.
  for (std::size_t i = 1; i < popped_tags_dut.size(); ++i) {
    const int a = popped_tags_dut[i - 1];
    const int b = popped_tags_dut[i];
    if (scheduled_time[static_cast<std::size_t>(a)] ==
        scheduled_time[static_cast<std::size_t>(b)]) {
      EXPECT_LT(a, b) << "ties must fire in insertion order";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

/// Naive oracle for the recycling fuzz: a vector of (time, tag) kept
/// unsorted; pop scans for the minimum (time, tag). Trivially correct, and
/// tag order doubles as the FIFO-within-timestamp check because tags are
/// issued in schedule order.
class SortedVectorOracle {
 public:
  void schedule(double time, int tag) { live_.push_back({time, tag}); }

  bool cancel(int tag) {
    for (auto it = live_.begin(); it != live_.end(); ++it) {
      if (it->second == tag) {
        live_.erase(it);
        return true;
      }
    }
    return false;
  }

  bool empty() const { return live_.empty(); }
  std::size_t size() const { return live_.size(); }

  std::pair<double, int> pop() {
    const auto best = earliest();
    const std::pair<double, int> out = *best;
    live_.erase(best);
    return out;
  }

  double next_time() const { return earliest()->first; }

 private:
  std::vector<std::pair<double, int>>::const_iterator earliest() const {
    auto best = live_.begin();
    for (auto it = live_.begin(); it != live_.end(); ++it) {
      if (it->first < best->first ||
          (it->first == best->first && it->second < best->second)) {
        best = it;
      }
    }
    return best;
  }

  std::vector<std::pair<double, int>> live_;
};

class EventQueueRecycleFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// Exercises the free-list/seq-check handle semantics: a small resident
// set with a high pop rate forces constant slot recycling, every handle
// ever issued is retained and re-cancelled later (stale cancels must hit
// the seq check, not a newer event in the recycled slot), and
// integer timestamps force FIFO tie-breaks against the naive oracle.
TEST_P(EventQueueRecycleFuzz, HandleReuseMatchesNaiveOracle) {
  RngStream rng(GetParam());
  EventQueue dut;
  SortedVectorOracle ref;

  std::vector<EventHandle> all_handles;   // every handle ever issued, by tag
  std::vector<bool> ref_live;             // oracle's view: tag still pending?
  std::vector<int> popped_tags;
  double clock = 0.0;

  for (int step = 0; step < 20000; ++step) {
    const double roll = rng.next_double();
    if (roll < 0.40) {
      // Schedule at integer offsets: many equal-timestamp ties.
      const double t = clock + std::floor(rng.uniform(0.0, 6.0));
      const int tag = static_cast<int>(all_handles.size());
      all_handles.push_back(
          dut.schedule(t, [tag, &popped_tags] { popped_tags.push_back(tag); }));
      ref.schedule(t, tag);
      ref_live.push_back(true);
    } else if (roll < 0.55 && !all_handles.empty()) {
      // Cancel an arbitrary historical handle: mostly stale (fired or
      // cancelled long ago, slot since recycled several times).
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(all_handles.size()) - 1));
      const bool dut_ok = dut.cancel(all_handles[idx]);
      bool ref_ok = false;
      if (ref_live[idx]) {
        ref_ok = ref.cancel(static_cast<int>(idx));
        ref_live[idx] = false;
      }
      ASSERT_EQ(dut_ok, ref_ok) << "stale/live cancel disagreement at step " << step;
    } else if (!dut.empty()) {
      // High pop rate keeps the resident set tiny -> aggressive recycling.
      ASSERT_FALSE(ref.empty());
      const auto [ref_t, ref_tag] = ref.pop();
      ref_live[static_cast<std::size_t>(ref_tag)] = false;
      ASSERT_DOUBLE_EQ(dut.next_time(), ref_t);
      auto [t, cb] = dut.pop();
      clock = t;
      cb();
      ASSERT_EQ(popped_tags.back(), ref_tag) << "identity mismatch at step " << step;
    }
    ASSERT_EQ(dut.size(), ref.size()) << "step " << step;
  }

  while (!dut.empty()) {
    ASSERT_FALSE(ref.empty());
    const auto [ref_t, ref_tag] = ref.pop();
    auto [t, cb] = dut.pop();
    ASSERT_DOUBLE_EQ(t, ref_t);
    cb();
    ASSERT_EQ(popped_tags.back(), ref_tag);
  }
  EXPECT_TRUE(ref.empty());

  // Every handle is now dead; cancelling each must be a rejected stale op.
  // (Equal-timestamp FIFO needs no separate check: the oracle pops ties in
  // tag order and identity was asserted pop-for-pop.)
  for (EventHandle h : all_handles) EXPECT_FALSE(dut.cancel(h));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueRecycleFuzz,
                         ::testing::Values(2u, 7u, 19u, 101u));

using Tier = EventQueueTestPeer::Tier;

class EventQueueTierFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// Drives every tier of the queue — open-bucket heap, time buckets and the
// far list — and every move between them against the naive oracle. Growth
// and drain phases alternate so epochs are rebuilt from far lists of many
// sizes; anchor timestamps collect events placed while their instant was
// far, bucketed and open, so one tie spans several tiers; schedules at
// `now` land beside the open bucket; 1e9 outliers sit behind dense
// half-second ties; and every handle ever issued stays cancellable, so
// stale cancels cross epoch rebuilds. next_time() is checked after every
// operation. The test also asserts that each of these cases occurred.
TEST_P(EventQueueTierFuzz, EveryTierMatchesNaiveOracle) {
  RngStream rng(GetParam());
  EventQueue dut;
  SortedVectorOracle ref;

  std::vector<EventHandle> handles;         // every handle ever issued, by tag
  std::vector<std::uint64_t> issue_epoch;   // epochs started before the schedule
  std::vector<bool> ref_live;
  std::vector<int> popped_tags;
  std::map<double, std::set<Tier>> placed;  // tiers each instant's events entered
  std::vector<double> anchors;
  std::array<int, 4> cancels_in{};          // live cancels, by tier
  int stale_across_epoch = 0;
  int at_now_beside_open = 0;
  int outliers_far = 0;
  double clock = 0.0;

  const auto schedule = [&](double t) {
    const int tag = static_cast<int>(handles.size());
    const bool open = !dut.empty();
    issue_epoch.push_back(EventQueueTestPeer::epochs(dut));
    handles.push_back(dut.schedule(t, [tag, &popped_tags] { popped_tags.push_back(tag); }));
    ref.schedule(t, tag);
    ref_live.push_back(true);
    const Tier tier = EventQueueTestPeer::tier(dut, handles.back());
    placed[t].insert(tier);
    if (t == clock && open && tier == Tier::kHeap) ++at_now_beside_open;
    if (t >= clock + 1e9 && tier == Tier::kFar) ++outliers_far;
  };

  const auto pop_and_check = [&](int step) {
    const auto [ref_t, ref_tag] = ref.pop();
    ref_live[static_cast<std::size_t>(ref_tag)] = false;
    auto [t, cb] = dut.pop();
    ASSERT_EQ(t, ref_t) << "step " << step;
    clock = t;
    cb();
    ASSERT_EQ(popped_tags.back(), ref_tag) << "identity mismatch at step " << step;
  };

  for (int step = 0; step < 40000; ++step) {
    // Every 5000 steps the queue runs empty and then only takes schedules
    // and cancels for a while, as a simulation's set-up does. Between
    // those, growth (few pops) and drain (many pops) phases alternate.
    if (step % 5000 == 0) {
      while (!ref.empty()) ASSERT_NO_FATAL_FAILURE(pop_and_check(step));
      ASSERT_TRUE(dut.empty());
    }
    const double pop_share = step % 5000 < 300 ? 0.0 : (step / 2500) % 2 == 0 ? 0.25 : 0.55;
    const double roll = rng.next_double();
    if (roll < 0.26) {
      schedule(clock + 0.5 * std::floor(rng.uniform(0.0, 64.0)));  // dense ties
    } else if (roll < 0.30) {
      schedule(clock);
    } else if (roll < 0.36) {
      std::erase_if(anchors, [clock](double a) { return a < clock; });
      if (anchors.empty() || rng.next_double() < 0.1) {
        anchors.push_back(clock + std::floor(rng.uniform(8.0, 120.0)));
      }
      schedule(anchors[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(anchors.size()) - 1))]);
    } else if (roll < 0.37) {
      schedule(clock + 1e9 + std::floor(rng.uniform(0.0, 3.0)));
    } else if (roll < 0.45 && !handles.empty()) {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(handles.size()) - 1));
      const Tier tier = EventQueueTestPeer::tier(dut, handles[idx]);
      const bool dut_ok = dut.cancel(handles[idx]);
      bool ref_ok = false;
      if (ref_live[idx]) {
        ref_ok = ref.cancel(static_cast<int>(idx));
        ref_live[idx] = false;
      }
      ASSERT_EQ(dut_ok, ref_ok) << "cancel disagreement at step " << step;
      if (dut_ok) ++cancels_in[static_cast<std::size_t>(tier)];
      if (!dut_ok && issue_epoch[idx] < EventQueueTestPeer::epochs(dut)) ++stale_across_epoch;
    } else if (roll < 0.45 + pop_share && !ref.empty()) {
      ASSERT_NO_FATAL_FAILURE(pop_and_check(step));
    }
    ASSERT_EQ(dut.size(), ref.size()) << "step " << step;
    ASSERT_EQ(dut.empty(), ref.empty()) << "step " << step;
    if (!ref.empty()) {
      ASSERT_EQ(dut.next_time(), ref.next_time()) << "step " << step;
    }
  }

  while (!ref.empty()) ASSERT_NO_FATAL_FAILURE(pop_and_check(-1));
  EXPECT_TRUE(dut.empty());
  for (EventHandle h : handles) EXPECT_FALSE(dut.cancel(h));

  // Coverage: the cases above really happened.
  EXPECT_GT(EventQueueTestPeer::epochs(dut), 20u);
  EXPECT_GT(cancels_in[static_cast<std::size_t>(Tier::kHeap)], 0);
  EXPECT_GT(cancels_in[static_cast<std::size_t>(Tier::kBucket)], 0);
  EXPECT_GT(cancels_in[static_cast<std::size_t>(Tier::kFar)], 0);
  EXPECT_GT(stale_across_epoch, 0);
  EXPECT_GT(at_now_beside_open, 0);
  EXPECT_GT(outliers_far, 0);
  int split_ties = 0;
  for (const auto& [t, tiers] : placed) split_ties += tiers.size() > 1 ? 1 : 0;
  EXPECT_GT(split_ties, 0) << "no instant had events placed in two tiers";
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueTierFuzz,
                         ::testing::Values(3u, 17u, 29u, 64u, 211u));

TEST(EventQueueHandles, StaleHandleAfterSlotRecycleIsIgnored) {
  EventQueue q;
  const EventHandle h1 = q.schedule(1.0, [] {});
  q.pop();  // frees h1's slot
  // The next schedule recycles the slot; the new event's seq must keep
  // the stale h1 from cancelling it.
  const EventHandle h2 = q.schedule(2.0, [] {});
  EXPECT_FALSE(h1 == h2);
  EXPECT_FALSE(q.cancel(h1));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(h2));
  EXPECT_FALSE(q.cancel(h2));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueHandles, StaleHandleSurvivesManyRecycleRounds) {
  EventQueue q;
  const EventHandle first = q.schedule(0.5, [] {});
  q.pop();
  for (int round = 0; round < 1000; ++round) {
    const EventHandle h = q.schedule(static_cast<double>(round), [] {});
    EXPECT_FALSE(q.cancel(first)) << "round " << round;
    if (round % 2 == 0) {
      q.pop();
    } else {
      EXPECT_TRUE(q.cancel(h));
    }
  }
  EXPECT_TRUE(q.empty());
}

// The handle's check word is the low half of the event's seq, so a slot
// that is reused over and over issues a new handle every time, and the old
// ones stay dead whichever tier the slot's new event sits in.
TEST(EventQueueHandles, ReusedSlotsIssueFreshHandlesInEveryTier) {
  EventQueue q;
  RngStream rng(5);
  std::vector<EventHandle> dead;
  std::set<std::uint64_t> ids;
  std::map<std::uint32_t, int> uses;  // schedules per slot
  std::set<Tier> tiers;
  for (int round = 0; round < 300; ++round) {
    const int n = 2 + round % 40;
    std::vector<EventHandle> live;
    int popped = -1;
    for (int k = 0; k < n; ++k) {
      // One far outlier per round; the rest spread over heap and buckets.
      const double t = k == 0 ? round + 1e6 : round + rng.uniform(0.0, 100.0);
      live.push_back(q.schedule(t, [&popped, k] { popped = k; }));
      EXPECT_TRUE(ids.insert(live.back().id).second) << "handle reissued in round " << round;
      ++uses[EventQueueTestPeer::slot(live.back())];
    }
    auto [t, cb] = q.pop();  // opens an epoch
    cb();
    ASSERT_GE(popped, 0);
    dead.push_back(live[static_cast<std::size_t>(popped)]);
    live.erase(live.begin() + popped);
    for (EventHandle h : live) tiers.insert(EventQueueTestPeer::tier(q, h));
    for (EventHandle h : dead) ASSERT_FALSE(q.cancel(h)) << "stale cancel in round " << round;
    for (EventHandle h : live) {
      ASSERT_TRUE(q.cancel(h));
      dead.push_back(h);
    }
    ASSERT_TRUE(q.empty());
  }
  int most_uses = 0;
  for (const auto& [slot, n] : uses) most_uses = std::max(most_uses, n);
  EXPECT_GE(most_uses, 100) << "slots were not recycled";
  EXPECT_TRUE(tiers.count(Tier::kHeap));
  EXPECT_TRUE(tiers.count(Tier::kBucket));
  EXPECT_TRUE(tiers.count(Tier::kFar));
}

TEST(EventQueueHandles, ForgedHandlesAreIgnored) {
  EventQueue q;
  const EventHandle h = q.schedule(1.0, [] {});
  EXPECT_FALSE(q.cancel(EventHandle{h.id & 0xffffffffu}));  // no slot part
  EXPECT_FALSE(q.cancel(EventHandle{h.id + (1ull << 32)}));  // slot past the table
  EXPECT_FALSE(q.cancel(EventHandle{h.id ^ 1u}));            // another seq in the slot
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(h));
}

TEST(EventQueueLayout, SlotIsOneCacheLine) {
  static_assert(EventQueueTestPeer::kSlotSize == 64 && EventQueueTestPeer::kSlotAlign == 64);
  EventQueue q;
  q.reserve(8);
  for (int i = 0; i < 8; ++i) q.schedule(i, [] {});
  EXPECT_EQ(EventQueueTestPeer::slot_table_address(q) % 64, 0u);
}

}  // namespace
}  // namespace adattl::sim
