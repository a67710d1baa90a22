#pragma once

#include <memory>

#include "experiment/config.h"
#include "experiment/metrics.h"
#include "experiment/slice.h"
#include "obs/event_tracer.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "web/monitor_hub.h"

namespace adattl::experiment {

/// One fully wired distributed Web site: servers, authoritative DNS
/// scheduler, per-domain name servers, client population, monitor, alarm
/// feedback, hidden-load estimation and metrics.
///
/// Construction builds the whole object graph from a SimulationConfig as
/// one slice owning every domain (experiment/slice.h), drawing from the
/// master stream RngStream(config.seed) itself. On top of the slice, Site
/// adds the MonitorHub — its 8 s tick is an event in the slice's own queue,
/// counted in events_dispatched — and the optional metrics registry and
/// event tracer. run() executes warm-up plus the measured period and
/// returns the aggregated results. One Site = one simulation run
/// (single-use).
class Site {
 public:
  explicit Site(const SimulationConfig& config);

  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  /// Runs warm-up + measured period; single use.
  RunResult run();

  // ---- Introspection (tests, examples) ----
  sim::Simulator& simulator() { return *slice_->sim; }
  web::Cluster& cluster() { return *slice_->cluster; }
  core::DnsScheduler& scheduler() { return *slice_->bundle.scheduler; }
  core::DomainModel& domain_model() { return *slice_->bundle.domains; }
  core::AlarmRegistry& alarms() { return *slice_->alarms; }
  core::LoadEstimator& estimator() { return *slice_->estimator; }
  const workload::DomainSet& domain_set() const { return inputs_.domains; }
  workload::ThinkTimeModel& think_time_model() { return *slice_->think; }
  /// Null when geography is disabled.
  const geo::GeoModel* geo_model() const { return inputs_.geo.get(); }
  /// NS `replica` (0-based) of domain `d`; throws std::out_of_range unless
  /// d < num_domains and replica < ns_per_domain.
  dnscache::NameServer& name_server(int d, int replica = 0);
  const SimulationConfig& config() const { return config_; }
  /// The fault layer (always constructed; empty schedule = inert).
  fault::FaultInjector& fault_injector() { return *slice_->fault; }
  /// The pooled client population.
  workload::ClientPool& clients() { return *slice_->clients; }
  /// Null unless config.autoscale_enabled.
  core::Autoscaler* autoscaler() { return slice_->autoscaler.get(); }

  /// Null unless config.metrics_enabled / config.trace_enabled.
  obs::MetricsRegistry* metrics_registry() { return metrics_registry_.get(); }
  obs::EventTracer* event_tracer() { return event_tracer_.get(); }

 private:
  std::span<const std::unique_ptr<Slice>> slices() const { return {&slice_, 1}; }

  SimulationConfig config_;
  SiteInputs inputs_;
  std::unique_ptr<Slice> slice_;
  // Declared after slice_: the hub references its simulator and cluster.
  std::unique_ptr<web::MonitorHub> monitor_;
  std::unique_ptr<MaxUtilizationTracker> tracker_;

  // Observability (null when disabled — the zero-cost default).
  std::unique_ptr<obs::MetricsRegistry> metrics_registry_;
  std::unique_ptr<obs::EventTracer> event_tracer_;
  double setup_seconds_ = 0.0;

  int ticks_ = 0;
  bool ran_ = false;
};

}  // namespace adattl::experiment
