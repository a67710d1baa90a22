#pragma once

#include <memory>
#include <vector>

#include "experiment/config.h"
#include "experiment/metrics.h"
#include "experiment/parallel_executor.h"
#include "experiment/site.h"
#include "experiment/slice.h"

namespace adattl::experiment {

/// Domain-sharded parallel-in-one-run mode (DESIGN.md §16).
///
/// Clients in different domains interact only through two channels: the
/// DNS estimator/alarm state (updated on the monitor clock) and the shared
/// servers. ShardedSite exploits that: the domains are partitioned
/// round-robin over N shards, each shard a slice (experiment/slice.h)
/// with a private simulator, scheduler replica, cluster replica, name
/// servers and pooled clients for its domains. ShardedSite itself adds
/// only the barrier loop and the busy-time merge. Shards advance
/// independently between monitor ticks; at every tick all shards stop on
/// a phase barrier and the main thread — in fixed shard order — merges
/// server busy-time deltas and queue depths into site-wide utilizations
/// and hands them to feed_tick, which feeds the SAME merged view to every
/// shard's alarm registry and (summed drained hit counters) to every
/// shard's estimator, so all scheduler replicas evolve identical feedback
/// state.
///
/// Determinism: shards share no mutable state between barriers and every
/// merge runs in fixed shard order on the caller's thread, so a run is
/// bit-identical across repeats at a fixed seed and shard count — whatever
/// the worker count (ADATTL_JOBS=1 and =8 produce the same bytes).
///
/// Modeling caveats vs the unsharded Site (documented, intentional):
/// each shard's cluster replica has the full per-server capacity, so
/// service times are exact but cross-shard queueing contention is
/// under-modeled — a server's merged utilization is the sum of its
/// replicas' busy fractions (clamped at 1), while queueing delay is
/// computed per shard against that shard's share of the load. The DNS
/// decision stream is split per shard (each shard's replica schedules its
/// own domains with its own RNG), so decisions differ from the unsharded
/// run's single stream. Sharded results are therefore an approximation of
/// the same model, not a bit-compatible replay of Site.
class ShardedSite {
 public:
  /// One shard is one slice (experiment/slice.h) owning the domains
  /// s, s + N, s + 2N, ... Public for tests/invariant checkers; treat as
  /// read-only from outside.
  using Shard = Slice;

  /// `config.shard_domains` must be set; `scale` is applied first. The
  /// shard count is config.shard_count (0 = default_jobs()), clamped to
  /// [1, num_domains].
  explicit ShardedSite(const SimulationConfig& config);

  ShardedSite(const ShardedSite&) = delete;
  ShardedSite& operator=(const ShardedSite&) = delete;

  /// Runs warm-up + measured period across `executor`; single use.
  RunResult run(ParallelExecutor& executor);
  /// run() on a fresh executor sized by ADATTL_JOBS.
  RunResult run();

  int shard_count() const { return static_cast<int>(shards_.size()); }
  Shard& shard(int s) { return *shards_.at(static_cast<std::size_t>(s)); }
  const SimulationConfig& config() const { return config_; }
  const workload::DomainSet& domain_set() const { return inputs_.domains; }
  MaxUtilizationTracker& tracker() { return *tracker_; }

 private:
  void monitor_tick(double now);

  SimulationConfig config_;
  SiteInputs inputs_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<MaxUtilizationTracker> tracker_;
  int ticks_ = 0;
  double setup_seconds_ = 0.0;
  bool ran_ = false;
};

}  // namespace adattl::experiment
