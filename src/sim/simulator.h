#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace adattl::sim {

/// Sequential discrete-event simulator.
///
/// Components schedule callbacks at absolute or relative simulated times;
/// run_until()/run() dispatch them in timestamp order (FIFO among equal
/// timestamps). This is the CSIM-replacement kernel the whole model runs
/// on: clients, servers, monitors and the DNS are all just event closures.
///
/// The kernel is single-threaded by design — runs are deterministic given
/// a fixed seed, which the statistics methodology (replications with
/// distinct seeds) relies on.
class Simulator {
 public:
  /// Current simulated time in seconds.
  SimTime now() const { return now_; }

  /// Schedules `cb` to run at absolute time `at`; throws std::invalid_argument
  /// if `at` lies in the past.
  EventHandle at(SimTime at, EventQueue::Callback cb) {
    if (at < now_) throw std::invalid_argument("Simulator::at: time in the past");
    return queue_.schedule(at, std::move(cb));
  }

  /// Schedules `cb` to run `delay` seconds from now; negative delays throw.
  ///
  /// This is the kernel's dominant scheduling pattern (think times, service
  /// completions, RTT legs), so it validates the delay sign directly:
  /// `now_ + delay >= now_` holds for any delay >= 0 under IEEE rounding,
  /// which skips the redundant absolute past-time comparison in at().
  EventHandle after(SimTime delay, EventQueue::Callback cb) {
    if (delay < 0.0) throw std::invalid_argument("Simulator::after: negative delay");
    return queue_.schedule(now_ + delay, std::move(cb));
  }

  /// Cancels a pending event; returns true if it was still pending.
  bool cancel(EventHandle h) { return queue_.cancel(h); }

  /// Runs events until the queue is exhausted or simulated time would pass
  /// `end`. Events exactly at `end` are executed. Returns the number of
  /// events dispatched.
  std::uint64_t run_until(SimTime end);

  /// Runs until the queue is exhausted.
  std::uint64_t run();

  /// Called from inside an event: the running run_until()/run() returns
  /// once that event completes, leaving now() at its time. Pending events
  /// stay queued for the next call. No effect outside a run.
  void stop() { limit_ = -std::numeric_limits<SimTime>::infinity(); }

  /// Total events dispatched since construction.
  std::uint64_t events_dispatched() const { return dispatched_; }

  /// Live events still pending.
  std::size_t pending() const { return queue_.size(); }

  /// Largest number of simultaneously pending events seen so far.
  std::size_t peak_pending() const { return queue_.peak_size(); }

  /// Successful cancellations since construction.
  std::uint64_t cancels() const { return queue_.cancels(); }

  /// Pre-sizes the event queue for `n` concurrent events (see
  /// EventQueue::reserve).
  void reserve(std::size_t n) { queue_.reserve(n); }

 private:
  /// Dispatches every event at or before `end` (until stop()).
  std::uint64_t dispatch(SimTime end);

  EventQueue queue_;
  SimTime now_ = 0.0;
  /// The running call's horizon; stop() lowers it below every event time.
  SimTime limit_ = 0.0;
  std::uint64_t dispatched_ = 0;
};

}  // namespace adattl::sim
