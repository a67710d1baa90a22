#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

namespace adattl::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator s;
  EXPECT_DOUBLE_EQ(s.now(), 0.0);
}

TEST(Simulator, RunsEventsAndAdvancesClock) {
  Simulator s;
  std::vector<double> times;
  s.at(1.0, [&] { times.push_back(s.now()); });
  s.at(2.0, [&] { times.push_back(s.now()); });
  EXPECT_EQ(s.run(), 2u);
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
}

TEST(Simulator, AfterSchedulesRelativeToNow) {
  Simulator s;
  double fired_at = -1;
  s.at(5.0, [&] { s.after(2.5, [&] { fired_at = s.now(); }); });
  s.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator s;
  s.at(10.0, [] {});
  s.run();
  EXPECT_THROW(s.at(5.0, [] {}), std::invalid_argument);
  EXPECT_THROW(s.after(-1.0, [] {}), std::invalid_argument);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator s;
  int fired = 0;
  s.at(1.0, [&] { ++fired; });
  s.at(2.0, [&] { ++fired; });
  s.at(3.0, [&] { ++fired; });
  EXPECT_EQ(s.run_until(2.0), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(s.now(), 2.0);
  EXPECT_EQ(s.pending(), 1u);
}

TEST(Simulator, RunUntilIncludesEventsExactlyAtHorizon) {
  Simulator s;
  bool fired = false;
  s.at(2.0, [&] { fired = true; });
  s.run_until(2.0);
  EXPECT_TRUE(fired);
}

TEST(Simulator, RunUntilAdvancesClockWhenQueueDrainsEarly) {
  Simulator s;
  s.at(1.0, [] {});
  s.run_until(100.0);
  EXPECT_DOUBLE_EQ(s.now(), 100.0);
}

TEST(Simulator, CancelPendingEvent) {
  Simulator s;
  bool fired = false;
  EventHandle h = s.at(1.0, [&] { fired = true; });
  EXPECT_TRUE(s.cancel(h));
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator s;
  int chain = 0;
  std::function<void()> step = [&] {
    if (++chain < 100) s.after(1.0, step);
  };
  s.at(0.0, step);
  s.run();
  EXPECT_EQ(chain, 100);
  EXPECT_DOUBLE_EQ(s.now(), 99.0);
}

TEST(Simulator, CountsDispatchedEvents) {
  Simulator s;
  for (int i = 0; i < 7; ++i) s.at(static_cast<double>(i), [] {});
  s.run();
  EXPECT_EQ(s.events_dispatched(), 7u);
}

TEST(Simulator, StopEndsTheRunAfterTheCurrentEvent) {
  Simulator s;
  std::vector<int> order;
  s.at(1.0, [&] { order.push_back(1); });
  s.at(2.0, [&] {
    order.push_back(2);
    s.stop();
  });
  s.at(2.0, [&] { order.push_back(3); });
  EXPECT_EQ(s.run_until(10.0), 2u);
  EXPECT_DOUBLE_EQ(s.now(), 2.0);  // left at the stopping event, not the horizon
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_EQ(s.run_until(10.0), 1u);  // resumes with the same-time event
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(s.now(), 10.0);
  EXPECT_EQ(s.events_dispatched(), 3u);
}

TEST(Simulator, StopOutsideARunHasNoEffect) {
  Simulator s;
  s.stop();
  s.at(1.0, [] {});
  EXPECT_EQ(s.run_until(5.0), 1u);
  EXPECT_DOUBLE_EQ(s.now(), 5.0);
}

}  // namespace
}  // namespace adattl::sim
