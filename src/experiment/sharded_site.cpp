#include "experiment/sharded_site.h"

#include <algorithm>
#include <stdexcept>

#include "obs/profiler.h"

namespace adattl::experiment {

ShardedSite::ShardedSite(const SimulationConfig& config) : config_(config.scaled()) {
  obs::Stopwatch setup_watch;
  config_.validate();
  if (!config_.shard_domains) {
    throw std::invalid_argument("ShardedSite: config.shard_domains must be set");
  }
  inputs_ = make_site_inputs(config_);

  // Domains round-robin over max(1, min(S, D)) shards. One split per
  // shard, in shard order, from the master stream: the derivation depends
  // only on (seed, shard index), never on worker count or interleaving.
  const int requested = config_.shard_count > 0 ? config_.shard_count : default_jobs();
  const int num_shards = std::max(1, std::min(requested, config_.num_domains));
  sim::RngStream master(config_.seed);
  shards_.reserve(static_cast<std::size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    shards_.push_back(build_slice(config_, inputs_, num_shards, s, master.split()));
  }
  tracker_ = std::make_unique<MaxUtilizationTracker>(config_.cluster.size(), config_.warmup_sec);
  setup_seconds_ = setup_watch.elapsed();
}

void ShardedSite::monitor_tick(double now) {
  // Merge phase — fixed shard order on the caller's thread. A server's
  // site-wide utilization is the sum of its replicas' busy fractions over
  // the tick (clamped at 1: replicas can overlap in time since each has
  // the full capacity); queue depths sum.
  const std::size_t num_servers = shards_.front()->prev_busy.size();
  std::vector<double> util(num_servers, 0.0);
  std::vector<std::size_t> queues(num_servers, 0);
  for (const auto& shard : shards_) {
    for (std::size_t i = 0; i < num_servers; ++i) {
      const double busy =
          shard->cluster->server(static_cast<int>(i)).cumulative_busy_time(now);
      util[i] += (busy - shard->prev_busy[i]) / config_.monitor_interval_sec;
      shard->prev_busy[i] = busy;
      queues[i] += shard->cluster->server(static_cast<int>(i)).queue_length();
    }
  }
  for (double& u : util) u = std::min(u, 1.0);
  feed_tick(shards_, config_, *tracker_, ticks_, now, util, queues);
}

RunResult ShardedSite::run(ParallelExecutor& executor) {
  if (ran_) throw std::logic_error("ShardedSite::run: a ShardedSite is single-use");
  ran_ = true;

  obs::Stopwatch phase_watch;
  double warmup_wall = 0.0;
  const double horizon = config_.warmup_sec + config_.duration_sec;
  const double interval = config_.monitor_interval_sec;

  // Phase-barrier loop: shards advance in parallel to the next monitor
  // tick (or the horizon), then the caller merges. Tick times accumulate
  // by repeated addition — the same float sequence MonitorHub's
  // after(interval) chaining produces.
  std::vector<std::function<void()>> tasks(shards_.size());
  double next_tick = interval;
  bool warmup_lapped = false;
  while (true) {
    const double target = std::min(next_tick, horizon);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      Shard* shard = shards_[s].get();
      tasks[s] = [shard, target] { shard->sim->run_until(target); };
    }
    executor.run(tasks);
    if (!warmup_lapped && target >= config_.warmup_sec) {
      warmup_wall = phase_watch.lap();
      warmup_lapped = true;
    }
    // run_until is inclusive, so a tick landing exactly on the horizon
    // fires — the same boundary behavior as Site's final MonitorHub tick.
    if (next_tick <= horizon && target == next_tick) {
      monitor_tick(next_tick);
      next_tick += interval;
    }
    if (target >= horizon) break;
  }
  const double measurement_wall = phase_watch.lap();

  RunResult r = aggregate(shards_, config_, *tracker_, horizon);
  r.profile.setup_sec = setup_seconds_;
  r.profile.warmup_sec = warmup_wall;
  r.profile.measurement_sec = measurement_wall;
  r.profile.collect_sec = phase_watch.lap();
  return r;
}

RunResult ShardedSite::run() {
  ParallelExecutor executor;
  return run(executor);
}

}  // namespace adattl::experiment
