#include "sim/simulator.h"

namespace adattl::sim {

std::uint64_t Simulator::dispatch(SimTime end) {
  limit_ = end;
  std::uint64_t n = 0;
  while (!queue_.empty() && queue_.next_time() <= limit_) {
    auto [t, cb] = queue_.pop();
    now_ = t;
    cb();
    ++n;
  }
  dispatched_ += n;
  return n;
}

std::uint64_t Simulator::run_until(SimTime end) {
  const std::uint64_t n = dispatch(end);
  // Advance the clock to the horizon even if the queue drained early, so
  // time-weighted statistics close their final interval at `end` — unless
  // an event stopped the run, which leaves the clock at that event.
  if (now_ < limit_) now_ = limit_;
  return n;
}

std::uint64_t Simulator::run() { return dispatch(std::numeric_limits<SimTime>::infinity()); }

}  // namespace adattl::sim
