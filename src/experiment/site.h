#pragma once

#include <memory>
#include <vector>

#include "experiment/config.h"
#include "experiment/metrics.h"
#include "experiment/parallel_executor.h"
#include "experiment/slice.h"
#include "obs/event_tracer.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace adattl::experiment {

/// One fully wired distributed Web site: servers, authoritative DNS
/// scheduler, per-domain name servers, client population, monitor, alarm
/// feedback, hidden-load estimation and metrics.
///
/// Construction builds S slices (experiment/slice.h) from a
/// SimulationConfig. S is 1 — one slice owning every domain, drawing from
/// the master stream RngStream(config.seed) itself — unless
/// config.shard_domains is set; then S = config.shard_count (0 =
/// default_jobs()) clamped to [1, num_domains], the slices own domains
/// round-robin, and each draws from its own master.split(), taken in slice
/// order (DESIGN.md §16).
///
/// One tick loop drives every S. At each monitor tick time every slice's
/// queue holds a tick event (counted in events_dispatched); when it fires,
/// that slice stops, so events scheduled at the same time before the tick
/// run before it and the rest after. With all slices stopped, the caller's
/// thread merges in fixed slice order — per-server busy-time deltas over
/// the interval and queue depths, summed — hands the site view to
/// feed_tick and posts the next tick events. Between ticks the slices share
/// no mutable state, so a run is bit-identical whatever the worker count.
///
/// Modeling caveats with S > 1 (documented, intentional): each slice's
/// cluster is a full-capacity replica, so service times are exact but
/// cross-slice queueing contention is under-modeled — a server's merged
/// utilization is the sum of its replicas' busy fractions, clamped at 1.
/// Each slice's scheduler replica decides for its own domains with its own
/// stream, so decisions differ from the one-slice run's. Sharded results
/// approximate the same model; they do not replay it.
///
/// One Site = one simulation run (single-use).
class Site {
 public:
  explicit Site(const SimulationConfig& config);

  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  /// Runs warm-up + measured period on an executor of min(ADATTL_JOBS, S)
  /// workers (no threads for one slice); single use.
  RunResult run();
  /// Runs warm-up + measured period, advancing the slices on `executor`.
  RunResult run(ParallelExecutor& executor);

  /// Advances every slice to simulated time `t`, feeding each monitor tick
  /// on the way; a tick exactly at `t` fires. Slices advance on `executor`,
  /// or in slice order on the calling thread when it is null. For stepping
  /// a site by hand; run() is built from it.
  void run_until(sim::SimTime t, ParallelExecutor* executor = nullptr);

  /// Number of slices (S).
  int shard_count() const { return static_cast<int>(slices_.size()); }
  /// Slice `s`, owning domains s, s + S, s + 2S, ...; treat as read-only.
  Slice& shard(int s) { return *slices_.at(static_cast<std::size_t>(s)); }

  // ---- Introspection (tests, examples): slice 0, the only slice unless
  // config.shard_domains ----
  sim::Simulator& simulator() { return *slices_.front()->sim; }
  web::Cluster& cluster() { return *slices_.front()->cluster; }
  core::DnsScheduler& scheduler() { return *slices_.front()->bundle.scheduler; }
  core::DomainModel& domain_model() { return *slices_.front()->bundle.domains; }
  core::AlarmRegistry& alarms() { return *slices_.front()->alarms; }
  core::LoadEstimator& estimator() { return *slices_.front()->estimator; }
  workload::ThinkTimeModel& think_time_model() { return *slices_.front()->think; }
  /// The fault layer (always constructed; empty schedule = inert).
  fault::FaultInjector& fault_injector() { return *slices_.front()->fault; }
  /// The pooled client population.
  workload::ClientPool& clients() { return *slices_.front()->clients; }
  /// Null unless config.autoscale_enabled.
  core::Autoscaler* autoscaler() { return slices_.front()->autoscaler.get(); }

  const workload::DomainSet& domain_set() const { return inputs_.domains; }
  /// Null when geography is disabled.
  const geo::GeoModel* geo_model() const { return inputs_.geo.get(); }
  /// NS `replica` (0-based) of domain `d`, from the slice that owns it;
  /// throws std::out_of_range unless d < num_domains and
  /// replica < ns_per_domain.
  dnscache::NameServer& name_server(int d, int replica = 0);
  /// The scaled config the site was built from.
  const SimulationConfig& config() const { return config_; }

  /// Null unless config.metrics_enabled / config.trace_enabled.
  obs::MetricsRegistry* metrics_registry() { return metrics_registry_.get(); }
  obs::EventTracer* event_tracer() { return event_tracer_.get(); }

 private:
  /// Runs every slice to `end`; a slice stops early at its tick event.
  void advance(sim::SimTime end, ParallelExecutor* executor);
  /// Merges the slices' view at next_tick_, feeds it, posts the next tick.
  void monitor_tick();
  void post_ticks();

  SimulationConfig config_;
  SiteInputs inputs_;
  std::vector<std::unique_ptr<Slice>> slices_;
  std::unique_ptr<MaxUtilizationTracker> tracker_;

  // Observability (null when disabled — the zero-cost default).
  std::unique_ptr<obs::MetricsRegistry> metrics_registry_;
  std::unique_ptr<obs::EventTracer> event_tracer_;
  double setup_seconds_ = 0.0;

  sim::SimTime next_tick_ = 0.0;
  std::vector<double> util_;         ///< merged view of the last tick
  std::vector<std::size_t> queues_;  ///< merged queue depths of the last tick
  int ticks_ = 0;
  bool ran_ = false;
};

}  // namespace adattl::experiment
