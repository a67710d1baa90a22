#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace adattl::sim {
namespace {

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(3.0, [&] { fired.push_back(3); });
  q.schedule(1.0, [&] { fired.push_back(1); });
  q.schedule(2.0, [&] { fired.push_back(2); });
  while (!q.empty()) {
    auto [t, cb] = q.pop();
    cb();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5.0, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, PopReturnsTimestamp) {
  EventQueue q;
  q.schedule(7.5, [] {});
  auto [t, cb] = q.pop();
  EXPECT_DOUBLE_EQ(t, 7.5);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeDoesNotPop) {
  EventQueue q;
  q.schedule(2.5, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 2.5);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  EventHandle h = q.schedule(1.0, [&] { ran = true; });
  q.schedule(2.0, [] {});
  EXPECT_TRUE(q.cancel(h));
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().second();
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelTwiceReturnsFalse) {
  EventQueue q;
  EventHandle h = q.schedule(1.0, [] {});
  EXPECT_TRUE(q.cancel(h));
  EXPECT_FALSE(q.cancel(h));
}

TEST(EventQueue, CancelFiredEventReturnsFalse) {
  EventQueue q;
  EventHandle h = q.schedule(1.0, [] {});
  q.pop();
  EXPECT_FALSE(q.cancel(h));
}

TEST(EventQueue, CancelDefaultHandleReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(EventHandle{}));
}

TEST(EventQueue, CancelledHeadSkipped) {
  EventQueue q;
  std::vector<int> fired;
  EventHandle h = q.schedule(1.0, [&] { fired.push_back(1); });
  q.schedule(2.0, [&] { fired.push_back(2); });
  q.cancel(h);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
  q.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{2}));
}

TEST(EventQueue, ManyInterleavedScheduleCancelPop) {
  EventQueue q;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 1000; ++i) {
    handles.push_back(q.schedule(static_cast<double>(1000 - i), [] {}));
  }
  // Cancel every third event.
  std::size_t cancelled = 0;
  for (std::size_t i = 0; i < handles.size(); i += 3) {
    ASSERT_TRUE(q.cancel(handles[i]));
    ++cancelled;
  }
  EXPECT_EQ(q.size(), 1000u - cancelled);
  double last = -1.0;
  std::size_t popped = 0;
  while (!q.empty()) {
    auto [t, cb] = q.pop();
    EXPECT_GE(t, last);
    last = t;
    ++popped;
  }
  EXPECT_EQ(popped, 1000u - cancelled);
}

TEST(EventQueue, InfiniteTimesFireLastInInsertionOrder) {
  // Simulator::at accepts +inf; such events fit no bucket of any epoch.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EventQueue q;
  std::vector<int> fired;
  q.schedule(kInf, [&] { fired.push_back(2); });
  q.schedule(kInf, [&] { fired.push_back(3); });
  q.schedule(5.0, [&] { fired.push_back(0); });
  auto [t, cb] = q.pop();
  EXPECT_DOUBLE_EQ(t, 5.0);
  cb();
  q.schedule(kInf, [&] { fired.push_back(4); });
  q.schedule(6.0, [&] { fired.push_back(1); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, HandlesAreDistinct) {
  EventQueue q;
  EventHandle a = q.schedule(1.0, [] {});
  EventHandle b = q.schedule(1.0, [] {});
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace adattl::sim
