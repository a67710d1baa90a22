#include "experiment/site.h"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>

namespace adattl::experiment {

Site::Site(const SimulationConfig& config) : config_(config.scaled()) {
  obs::Stopwatch setup_watch;
  config_.validate();

  // Observability backends exist only when asked for; every consumer takes
  // a nullable pointer, so the disabled path costs a handful of null binds.
  if (config_.metrics_enabled) metrics_registry_ = std::make_unique<obs::MetricsRegistry>();
  if (config_.trace_enabled) {
    event_tracer_ = std::make_unique<obs::EventTracer>(config_.trace_capacity);
  }

  // One slice draws from the master stream itself. Several take one split
  // each, in slice order, so the derivation depends only on (seed, slice
  // index) — and slice 0 never shares a stream with slice 1.
  inputs_ = make_site_inputs(config_);
  const int requested = !config_.shard_domains  ? 1
                        : config_.shard_count > 0 ? config_.shard_count
                                                  : default_jobs();
  const int num_slices = std::max(1, std::min(requested, config_.num_domains));
  sim::RngStream master(config_.seed);
  slices_.reserve(static_cast<std::size_t>(num_slices));
  for (int s = 0; s < num_slices; ++s) {
    slices_.push_back(build_slice(config_, inputs_, num_slices, s,
                                  num_slices == 1 ? master : master.split()));
  }

  // ---- Monitoring: alarms, metrics, estimation all on the 8 s clock ----
  tracker_ = std::make_unique<MaxUtilizationTracker>(config_.cluster.size(), config_.warmup_sec);
  util_.resize(static_cast<std::size_t>(config_.cluster.size()));
  queues_.resize(util_.size());
  next_tick_ = config_.monitor_interval_sec;
  post_ticks();

  // ---- Observability wiring (resolves all metric handles once, here) ----
  if (metrics_registry_ || event_tracer_) {
    obs::MetricsRegistry* reg = metrics_registry_.get();
    obs::EventTracer* tracer = event_tracer_.get();
    for (const auto& slice : slices_) {
      slice->bundle.scheduler->bind_observability(reg, tracer, slice->sim.get());
      slice->alarms->bind_observability(reg, tracer);
      slice->fault->bind_observability(reg, tracer);
      for (auto& ns : slice->name_servers) ns->bind_observability(reg, tracer);
      for (int s = 0; s < slice->cluster->size(); ++s) {
        slice->cluster->server(s).bind_observability(reg, tracer);
      }
    }
  }
  setup_seconds_ = setup_watch.elapsed();
}

dnscache::NameServer& Site::name_server(int d, int replica) {
  if (d < 0 || d >= config_.num_domains || replica < 0 || replica >= config_.ns_per_domain) {
    throw std::out_of_range("Site::name_server: no replica " + std::to_string(replica) +
                            " of domain " + std::to_string(d));
  }
  // Domain d is the (d / S)-th domain of slice d % S.
  const int num_slices = shard_count();
  const Slice& owner = *slices_[static_cast<std::size_t>(d % num_slices)];
  return *owner.name_servers[static_cast<std::size_t>((d / num_slices) * config_.ns_per_domain +
                                                      replica)];
}

void Site::post_ticks() {
  for (const auto& slice : slices_) {
    sim::Simulator* sim = slice->sim.get();
    sim->at(next_tick_, sim::assert_inline([sim] { sim->stop(); }));
  }
}

void Site::advance(sim::SimTime end, ParallelExecutor* executor) {
  if (!executor || slices_.size() == 1) {
    for (const auto& slice : slices_) slice->sim->run_until(end);
    return;
  }
  std::vector<std::function<void()>> legs;
  legs.reserve(slices_.size());
  for (const auto& slice : slices_) {
    legs.push_back([sim = slice->sim.get(), end] { sim->run_until(end); });
  }
  executor->run(std::move(legs));
}

void Site::monitor_tick() {
  // A server's utilization is the sum of its replicas' busy fractions over
  // the interval; queue depths sum.
  const sim::SimTime now = next_tick_;
  std::fill(util_.begin(), util_.end(), 0.0);
  std::fill(queues_.begin(), queues_.end(), 0);
  for (const auto& slice : slices_) {
    for (std::size_t i = 0; i < util_.size(); ++i) {
      const web::WebServer& server = slice->cluster->server(static_cast<int>(i));
      const double busy = server.cumulative_busy_time(now);
      util_[i] += (busy - slice->prev_busy[i]) / config_.monitor_interval_sec;
      slice->prev_busy[i] = busy;
      queues_[i] += server.queue_length();
    }
  }
  // Replicas overlap in time (each has the full capacity), so a merged
  // fraction can pass 1; a lone slice's reading goes through as measured.
  if (slices_.size() > 1) {
    for (double& u : util_) u = std::min(u, 1.0);
  }
  feed_tick(slices_, config_, *tracker_, ticks_, now, util_, queues_, event_tracer_.get());
  next_tick_ += config_.monitor_interval_sec;
  post_ticks();
}

void Site::run_until(sim::SimTime t, ParallelExecutor* executor) {
  for (;;) {
    const bool tick = next_tick_ <= t;
    advance(tick ? next_tick_ : t, executor);
    if (!tick) return;
    monitor_tick();
  }
}

RunResult Site::run() {
  ParallelExecutor executor(shard_count() == 1 ? 1 : std::min(default_jobs(), shard_count()));
  return run(executor);
}

RunResult Site::run(ParallelExecutor& executor) {
  if (ran_) throw std::logic_error("Site::run: a Site is single-use");
  ran_ = true;

  // The split at the warm-up boundary is bit-identical to one run_until
  // call over the full horizon: events scheduled exactly at the boundary
  // execute in the first leg either way. It exists only to attribute wall
  // time to the warm-up vs measured phases.
  obs::Stopwatch phase_watch;
  const double horizon = config_.warmup_sec + config_.duration_sec;
  run_until(config_.warmup_sec, &executor);
  const double warmup_wall = phase_watch.lap();
  run_until(horizon, &executor);
  const double measurement_wall = phase_watch.lap();

  RunResult r = aggregate(slices_, config_, *tracker_, horizon);
  if (metrics_registry_) {
    // Kernel health is tracked inside the event queue regardless of the
    // registry; surface it in the snapshot alongside the wired instruments.
    // Metrics run on one slice only (cross_validate rejects them sharded).
    const sim::Simulator& sim = simulator();
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
