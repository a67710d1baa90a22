#include "core/scheduler.h"

#include <stdexcept>

#include "geo/geo_model.h"

namespace adattl::core {

DnsScheduler::DnsScheduler(std::string name, std::unique_ptr<SelectionPolicy> selection,
                           std::unique_ptr<TtlPolicy> ttl, const AlarmRegistry& alarms,
                           std::shared_ptr<const geo::GeoModel> geo)
    : name_(std::move(name)),
      selection_(std::move(selection)),
      ttl_(std::move(ttl)),
      alarms_(alarms),
      geo_(std::move(geo)),
      assignments_(alarms.eligible().size(), 0),
      per_server_assignment_rtt_sec_(alarms.eligible().size(), 0.0) {
  if (!selection_ || !ttl_) throw std::invalid_argument("DnsScheduler: missing policy");
}

Decision DnsScheduler::schedule(web::DomainId domain) {
  DecisionContext ctx;
  ctx.domain = domain;
  ctx.eligible = &alarms_.eligible();
  ctx.utilization = &alarms_.last_utilization();
  ctx.queue_depth = &alarms_.last_queue_depth();
  ctx.geo = geo_.get();
  ctx.pool_size = alarms_.pool_size();
  ctx.feedback_generation = alarms_.feedback_generation();

  const web::ServerId server = selection_->select(ctx);
  const double ttl = ttl_->ttl(domain, server);
  selection_->on_assign(domain, server, ttl);

  ++decisions_;
  assignments_.at(static_cast<std::size_t>(server))++;
  ttl_stat_.add(ttl);
  if (geo_) {
    const double rtt = geo_->rtt(domain, server);
    assignment_rtt_sum_sec_ += rtt;
    per_server_assignment_rtt_sec_[static_cast<std::size_t>(server)] += rtt;
  }

  obs_decisions_.inc();
  obs_ttl_.observe(ttl);
  if (bound_) {
    // Eligible-set size is only worth the O(N) count when someone listens.
    std::size_t eligible = 0;
    for (const bool e : alarms_.eligible()) eligible += e ? 1 : 0;
    obs_eligible_.observe(static_cast<double>(eligible));
    if (tracer_) {
      tracer_->record(clock_ ? clock_->now() : 0.0, obs::TraceKind::kDecision, domain, server,
                      ttl);
    }
  }
  return Decision{server, ttl};
}

void DnsScheduler::bind_observability(obs::MetricsRegistry* registry, obs::EventTracer* tracer,
                                      const sim::Simulator* clock) {
  tracer_ = tracer;
  clock_ = clock;
  bound_ = registry != nullptr || tracer != nullptr;
  if (registry) {
    const int servers = static_cast<int>(assignments_.size());
    obs_decisions_ = registry->counter("scheduler.decisions");
    // TTL range: generous multiple of typical reference TTLs (240 s); the
    // overflow bin catches calibration blow-ups.
    obs_ttl_ = registry->histogram("scheduler.ttl_sec", 3600.0, 144);
    obs_eligible_ = registry->histogram("scheduler.eligible_servers",
                                        static_cast<double>(servers) + 1.0, servers + 1);
  }
}

}  // namespace adattl::core
