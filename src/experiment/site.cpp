#include "experiment/site.h"

#include <stdexcept>
#include <string>

namespace adattl::experiment {

Site::Site(const SimulationConfig& config) : config_(config.scaled()) {
  obs::Stopwatch setup_watch;
  config_.validate();
  if (config_.shard_domains) {
    throw std::invalid_argument("Site: shard_domains configs require ShardedSite");
  }

  // Observability backends exist only when asked for; every consumer takes
  // a nullable pointer, so the disabled path costs a handful of null binds.
  if (config_.metrics_enabled) metrics_registry_ = std::make_unique<obs::MetricsRegistry>();
  if (config_.trace_enabled) {
    event_tracer_ = std::make_unique<obs::EventTracer>(config_.trace_capacity);
  }

  inputs_ = make_site_inputs(config_);
  slice_ = build_slice(config_, inputs_, 1, 0, sim::RngStream(config_.seed));

  // ---- Monitoring: alarms, metrics, estimation all on the 8 s clock ----
  monitor_ = std::make_unique<web::MonitorHub>(*slice_->sim, *slice_->cluster,
                                               config_.monitor_interval_sec);
  tracker_ = std::make_unique<MaxUtilizationTracker>(slice_->cluster->size(), config_.warmup_sec);
  monitor_->add_observer([this](sim::SimTime now, const std::vector<double>& util,
                                const std::vector<std::size_t>& queues) {
    feed_tick(slices(), config_, *tracker_, ticks_, now, util, queues, event_tracer_.get());
  });
  monitor_->start();

  // ---- Observability wiring (resolves all metric handles once, here) ----
  if (metrics_registry_ || event_tracer_) {
    obs::MetricsRegistry* reg = metrics_registry_.get();
    obs::EventTracer* tracer = event_tracer_.get();
    slice_->bundle.scheduler->bind_observability(reg, tracer, slice_->sim.get());
    slice_->alarms->bind_observability(reg, tracer);
    slice_->fault->bind_observability(reg, tracer);
    for (auto& ns : slice_->name_servers) ns->bind_observability(reg, tracer);
    for (int s = 0; s < slice_->cluster->size(); ++s) {
      slice_->cluster->server(s).bind_observability(reg, tracer);
    }
  }
  setup_seconds_ = setup_watch.elapsed();
}

dnscache::NameServer& Site::name_server(int d, int replica) {
  if (d < 0 || d >= config_.num_domains || replica < 0 || replica >= config_.ns_per_domain) {
    throw std::out_of_range("Site::name_server: no replica " + std::to_string(replica) +
                            " of domain " + std::to_string(d));
  }
  return *slice_->name_servers[static_cast<std::size_t>(d * config_.ns_per_domain + replica)];
}

RunResult Site::run() {
  if (ran_) throw std::logic_error("Site::run: a Site is single-use");
  ran_ = true;

  // The split at the warm-up boundary is bit-identical to one run_until
  // call over the full horizon: events scheduled exactly at the boundary
  // execute in the first leg either way. It exists only to attribute wall
  // time to the warm-up vs measured phases.
  sim::Simulator& sim = *slice_->sim;
  obs::Stopwatch phase_watch;
  const double horizon = config_.warmup_sec + config_.duration_sec;
  sim.run_until(config_.warmup_sec);
  const double warmup_wall = phase_watch.lap();
  sim.run_until(horizon);
  const double measurement_wall = phase_watch.lap();

  RunResult r = aggregate(slices(), config_, *tracker_, horizon);
  if (metrics_registry_) {
    // Kernel health is tracked inside the event queue regardless of the
    // registry; surface it in the snapshot alongside the wired instruments.
    metrics_registry_->gauge("kernel.events_dispatched")
        .set(static_cast<double>(sim.events_dispatched()));
    metrics_registry_->gauge("kernel.peak_events").set(static_cast<double>(sim.peak_pending()));
    metrics_registry_->gauge("kernel.cancels").set(static_cast<double>(sim.cancels()));
    metrics_registry_->gauge("kernel.live_events_at_end")
        .set(static_cast<double>(sim.pending()));
    metrics_registry_->gauge("dns.outage_sec").set(r.dns_outage_sec);
    metrics_registry_->gauge("latency.mean_assignment_rtt_sec").set(r.mean_assignment_rtt_sec);
    metrics_registry_->gauge("latency.mean_network_rtt_sec").set(r.mean_network_rtt_sec);
    metrics_registry_->gauge("pool.final_size").set(static_cast<double>(r.final_pool_size));
    metrics_registry_->gauge("pool.changes").set(static_cast<double>(r.pool_changes));
    r.metrics = std::make_shared<const obs::MetricsSnapshot>(metrics_registry_->snapshot());
  }

  r.profile.setup_sec = setup_seconds_;
  r.profile.warmup_sec = warmup_wall;
  r.profile.measurement_sec = measurement_wall;
  r.profile.collect_sec = phase_watch.lap();
  return r;
}

}  // namespace adattl::experiment
