#include "experiment/slice.h"

#include <numeric>

namespace adattl::experiment {

SiteInputs make_site_inputs(const SimulationConfig& config) {
  SiteInputs in;
  in.base = config.uniform_clients
                ? workload::make_uniform_domains(config.num_domains, config.total_clients,
                                                 config.mean_think_sec)
                : workload::make_zipf_domains(config.num_domains, config.total_clients,
                                              config.mean_think_sec, config.zipf_theta);
  in.domains = in.base;
  if (config.rate_perturbation_percent > 0.0) {
    workload::apply_rate_perturbation(in.domains, config.rate_perturbation_percent);
  }
  if (config.geo_regions > 0) {
    in.geo = std::make_shared<const geo::GeoModel>(
        geo::GeoModel::regions(config.num_domains, config.cluster.size(), config.geo_regions,
                               config.geo_intra_rtt_sec, config.geo_inter_rtt_sec));
  }
  for (const ServerOutage& outage : config.outages) {
    in.faults.pauses.push_back(
        fault::PauseWindow{outage.start_sec, outage.duration_sec, outage.server});
  }
  in.faults.merge(config.faults);
  return in;
}

std::unique_ptr<Slice> build_slice(const SimulationConfig& config, const SiteInputs& inputs,
                                   int num_shards, int shard, sim::RngStream rng) {
  auto slice = std::make_unique<Slice>();
  slice->rng = rng;
  for (int d = shard; d < config.num_domains; d += num_shards) slice->domains.push_back(d);
  int slice_clients = 0;
  for (int d : slice->domains) {
    slice_clients += inputs.domains.clients[static_cast<std::size_t>(d)];
  }

  // Steady state holds roughly one in-flight event per client (think timer
  // or service leg) plus TTL expiries and the monitor tick; pre-sizing the
  // kernel keeps the whole run allocation-free inside the event loop.
  slice->sim = std::make_unique<sim::Simulator>();
  slice->sim->reserve(2 * static_cast<std::size_t>(slice_clients) + 64);

  // ---- Workload ----
  // A full think-time table (domain ids are global). Scripted flash crowds
  // and trace points fire as simulator events in the owning slice only;
  // the DNS learns of them through the estimator (if enabled).
  slice->think = std::make_unique<workload::ThinkTimeModel>(inputs.domains.mean_think_sec);
  for (const workload::RateShift& shift : config.rate_shifts) {
    if (shift.domain % num_shards != shard) continue;
    workload::ThinkTimeModel* think = slice->think.get();
    slice->sim->at(shift.at_sec, sim::assert_inline([think, shift] {
                     think->scale_rate(shift.domain, shift.rate_factor);
                   }));
  }
  workload::schedule_trace(*slice->sim, *slice->think, config.trace_events, num_shards, shard);

  // ---- Servers, faults and server-side dispatch ----
  // A sharded slice's cluster is a full-capacity replica: service times
  // are exact, cross-shard queueing contention is under-modeled
  // (DESIGN.md §16).
  slice->cluster = std::make_unique<web::Cluster>(*slice->sim, config.cluster,
                                                  config.num_domains, slice->rng);
  slice->fault =
      std::make_unique<fault::FaultInjector>(*slice->sim, *slice->cluster, inputs.faults);
  if (config.redirect_enabled) {
    slice->dispatcher = std::make_unique<web::RedirectingDispatcher>(
        *slice->sim, *slice->cluster, config.redirect_max_wait_sec, config.redirect_delay_sec,
        config.session.mean_hits_per_page());
  } else {
    slice->dispatcher = std::make_unique<web::DirectDispatcher>(*slice->cluster);
  }

  // ---- DNS scheduler ----
  slice->alarms = std::make_unique<core::AlarmRegistry>(
      slice->cluster->size(), config.alarm_threshold, config.alarm_enabled,
      config.alarm_queue_threshold);
  // Crash events mark servers down in the registry (hard health facts,
  // independent of the utilization alarms — works even with --no-alarm).
  slice->fault->set_alarm_registry(slice->alarms.get());
  if (config.autoscale_enabled) {
    slice->autoscaler = std::make_unique<core::Autoscaler>(
        *slice->alarms, core::Autoscaler::Config{
                            .high_watermark = config.autoscale_high_watermark,
                            .low_watermark = config.autoscale_low_watermark,
                            .hysteresis_ticks = config.autoscale_hysteresis_ticks,
                            .min_servers = config.autoscale_min_servers});
  }
  // Cold-started estimators start from a uniform prior, and seed from it
  // instead of anchoring on whatever the first measured window holds.
  const bool cold_start = config.estimator_cold_start && !config.oracle_weights;
  core::SchedulerFactoryConfig fc;
  fc.capacities = slice->cluster->capacities();
  fc.initial_weights = cold_start
                           ? std::vector<double>(static_cast<std::size_t>(config.num_domains), 1.0)
                           : inputs.base.true_weights();
  fc.class_threshold = config.effective_class_threshold();
  fc.reference_ttl = config.reference_ttl_sec;
  fc.calibrate_ttl = config.calibrate_ttl;
  fc.geo = inputs.geo;
  slice->bundle =
      core::make_scheduler(config.policy, fc, *slice->alarms, *slice->sim, slice->rng);

  core::DomainModel& model = *slice->bundle.domains;
  switch (config.estimator_kind) {
    case EstimatorKind::kEwma:
      slice->estimator = std::make_unique<core::EwmaLoadEstimator>(
          model, config.estimator_smoothing, config.oracle_weights, cold_start);
      break;
    case EstimatorKind::kSlidingWindow:
      slice->estimator = std::make_unique<core::SlidingWindowLoadEstimator>(
          model, config.estimator_window_count, config.oracle_weights);
      break;
    case EstimatorKind::kHoltWinters:
      slice->estimator = std::make_unique<core::HoltWintersLoadEstimator>(
          model, config.estimator_smoothing, config.estimator_trend, config.oracle_weights,
          cold_start);
      break;
    case EstimatorKind::kAr:
      slice->estimator = std::make_unique<core::ArLoadEstimator>(
          model, config.estimator_ar_order, config.oracle_weights);
      break;
  }

  // ---- Name servers (ns_per_domain caches per owned domain) ----
  dnscache::NsTtlBehavior ns_behavior;
  ns_behavior.min_accepted_sec = config.ns_min_ttl_sec;
  dnscache::NsRetryPolicy ns_retry;
  ns_retry.initial_backoff_sec = config.ns_retry_initial_backoff_sec;
  ns_retry.max_backoff_sec = config.ns_retry_max_backoff_sec;
  const auto ns_per_domain = static_cast<std::size_t>(config.ns_per_domain);
  slice->name_servers.reserve(slice->domains.size() * ns_per_domain);
  for (int d : slice->domains) {
    for (std::size_t m = 0; m < ns_per_domain; ++m) {
      slice->name_servers.push_back(std::make_unique<dnscache::NameServer>(
          *slice->sim, d, *slice->bundle.scheduler, ns_behavior));
      // Only wire the outage calendar when windows exist: a NS without a
      // calendar skips the unreachable check entirely (fault-free runs
      // stay on the exact historical code path).
      if (!slice->fault->dns_calendar().empty()) {
        slice->name_servers.back()->set_dns_outages(&slice->fault->dns_calendar(), ns_retry);
      }
    }
  }

  // ---- Clients (one pooled allocation for the slice's population) ----
  sim::RngStream client_seeds = slice->rng.split();
  sim::RngStream stagger = slice->rng.split();
  slice->clients = std::make_unique<workload::ClientPool>(
      *slice->sim, *slice->dispatcher, config.session, *slice->think, inputs.geo.get(),
      config.client_retry_delay_sec);
  slice->clients->reserve(static_cast<std::size_t>(slice_clients));
  for (std::size_t k = 0; k < slice->domains.size(); ++k) {
    const int clients = inputs.domains.clients[static_cast<std::size_t>(slice->domains[k])];
    for (int c = 0; c < clients; ++c) {
      // Clients spread round-robin over their domain's name servers.
      dnscache::NameServer& ns =
          *slice->name_servers[k * ns_per_domain + static_cast<std::size_t>(c) % ns_per_domain];
      dnscache::Resolver* resolver = &ns;
      if (config.client_cache_enabled) {
        slice->client_caches.push_back(std::make_unique<dnscache::ClientCache>(*slice->sim, ns));
        resolver = slice->client_caches.back().get();
      }
      const std::size_t idx = slice->clients->add(*resolver, client_seeds.split());
      // Staggered arrival over one think time keeps t = 0 from stampeding
      // the DNS with simultaneous resolutions.
      slice->clients->start(idx, stagger.uniform(0.0, config.mean_think_sec));
    }
  }

  // Cumulative busy time is 0 at t = 0: the first tick reads [0, interval).
  slice->prev_busy.assign(static_cast<std::size_t>(slice->cluster->size()), 0.0);
  return slice;
}

void feed_tick(std::span<const std::unique_ptr<Slice>> slices,
               const SimulationConfig& config, MaxUtilizationTracker& tracker, int& ticks,
               sim::SimTime now, const std::vector<double>& util,
               const std::vector<std::size_t>& queues, obs::EventTracer* tracer) {
  if (tracer) {
    for (std::size_t s = 0; s < util.size(); ++s) {
      tracer->record(now, obs::TraceKind::kUtilization, static_cast<std::int32_t>(s), 0,
                     util[s]);
    }
  }
  for (const auto& slice : slices) {
    slice->alarms->observe_full(now, util, queues);
    if (slice->autoscaler) slice->autoscaler->observe(util);
  }
  tracker.observe(now, util);
  if (config.oracle_weights || ++ticks % config.estimator_collect_every_ticks != 0) return;

  const double window_sec = config.monitor_interval_sec * config.estimator_collect_every_ticks;
  std::vector<std::uint64_t> total(static_cast<std::size_t>(config.num_domains), 0);
  for (const auto& slice : slices) {
    for (int s = 0; s < slice->cluster->size(); ++s) {
      const std::vector<std::uint64_t> part = slice->cluster->server(s).drain_domain_hits();
      for (std::size_t d = 0; d < total.size(); ++d) total[d] += part[d];
    }
  }
  for (const auto& slice : slices) slice->estimator->observe(total, window_sec);
  if (tracer) {
    tracer->record(now, obs::TraceKind::kEstimatorUpdate,
                   slices.front()->estimator->windows_observed(), 0, window_sec);
  }
}

RunResult aggregate(std::span<const std::unique_ptr<Slice>> slices,
                    const SimulationConfig& config, const MaxUtilizationTracker& tracker,
                    double horizon) {
  const Slice& first = *slices.front();
  RunResult r;
  r.seed = config.seed;
  r.max_util_cdf = tracker.cdf();
  r.prob_below_090 = tracker.prob_below(0.90);
  r.prob_below_098 = tracker.prob_below(0.98);
  r.mean_max_utilization = tracker.mean_max_utilization();
  r.max_util_ci_relative = tracker.batch_means().relative_halfwidth();
  r.mean_server_util = tracker.mean_utilizations();

  // Capacity-weighted aggregate utilization = offered load / total capacity.
  const std::vector<double>& cap = first.cluster->capacities();
  const double total_cap = std::accumulate(cap.begin(), cap.end(), 0.0);
  for (std::size_t i = 0; i < cap.size(); ++i) {
    r.aggregate_utilization += r.mean_server_util[i] * cap[i] / total_cap;
  }

  double network_time = 0.0;
  sim::RunningStat ttl_stat;
  std::vector<sim::RunningStat> response(cap.size());
  sim::Histogram site_response(30.0, 3000);
  std::uint64_t decisions = 0;
  double rtt_total = 0.0;
  std::vector<double> rtt_per_server(cap.size(), 0.0);
  std::uint64_t redirects = 0, direct_deliveries = 0;
  for (const auto& slice : slices) {
    const workload::ClientPool::Totals totals = slice->clients->totals();
    r.total_pages += totals.pages;
    network_time += totals.network_time_sec;
    const web::Cluster& cluster = *slice->cluster;
    for (int s = 0; s < cluster.size(); ++s) {
      const web::WebServer& server = cluster.server(s);
      r.total_hits += server.hits_served();
      response[static_cast<std::size_t>(s)].merge(server.response_time());
      site_response.merge(server.response_histogram());
    }
    for (const auto& ns : slice->name_servers) {
      r.authoritative_queries += ns->authoritative_queries();
      r.ns_cache_hits += ns->cache_hits();
    }
    for (const auto& cc : slice->client_caches) r.client_cache_hits += cc->hits();
    const core::DnsScheduler& scheduler = *slice->bundle.scheduler;
    ttl_stat.merge(scheduler.ttl_stat());
    decisions += scheduler.decisions();
    rtt_total += scheduler.assignment_rtt_sum_sec();
    const std::vector<double>& part = scheduler.per_server_assignment_rtt_sec();
    for (std::size_t i = 0; i < rtt_per_server.size(); ++i) rtt_per_server[i] += part[i];
    if (const auto* redirecting =
            dynamic_cast<const web::RedirectingDispatcher*>(slice->dispatcher.get())) {
      redirects += redirecting->redirects();
      direct_deliveries += redirecting->direct_deliveries();
    }
    r.events_dispatched += slice->sim->events_dispatched();
    r.lost_pages += cluster.total_lost_pages();
    r.lost_hits += cluster.total_lost_hits();
    r.failed_requests += cluster.total_lost_pages() + cluster.total_rejected_pages();
  }
  r.mean_network_rtt_sec =
      r.total_pages ? network_time / static_cast<double>(r.total_pages) : 0.0;
  r.address_request_rate = static_cast<double>(r.authoritative_queries) / horizon;
  r.dns_controlled_fraction =
      r.total_pages ? static_cast<double>(r.authoritative_queries) /
                          static_cast<double>(r.total_pages)
                    : 0.0;

  double response_weighted = 0.0;
  std::uint64_t response_pages = 0;
  for (const sim::RunningStat& rt : response) {
    r.per_server_response_sec.push_back(rt.mean());
    response_weighted += rt.mean() * static_cast<double>(rt.count());
    response_pages += rt.count();
  }
  r.mean_page_response_sec =
      response_pages ? response_weighted / static_cast<double>(response_pages) : 0.0;
  r.response_p50_sec = site_response.quantile(0.50);
  r.response_p95_sec = site_response.quantile(0.95);
  r.response_p99_sec = site_response.quantile(0.99);

  // ---- Latency as a first-class result ----
  if (config.geo_regions > 0 && decisions > 0) {
    r.mean_assignment_rtt_sec = rtt_total / static_cast<double>(decisions);
    r.rtt_weighted_assignment_share.resize(rtt_per_server.size(), 0.0);
    if (rtt_total > 0.0) {
      for (std::size_t i = 0; i < rtt_per_server.size(); ++i) {
        r.rtt_weighted_assignment_share[i] = rtt_per_server[i] / rtt_total;
      }
    }
  }
  // Every domain's clients live in exactly one slice, so its histogram
  // comes from the owning slice verbatim.
  std::vector<const workload::ClientPool*> owner(static_cast<std::size_t>(config.num_domains));
  for (const auto& slice : slices) {
    for (int d : slice->domains) owner[static_cast<std::size_t>(d)] = slice->clients.get();
  }
  r.domain_latency.reserve(owner.size());
  for (int d = 0; d < config.num_domains; ++d) {
    const sim::Histogram& h = owner[static_cast<std::size_t>(d)]->domain_response_histogram(d);
    RunResult::DomainLatency dl;
    dl.pages = h.count();
    if (dl.pages > 0) {
      dl.p50_sec = h.quantile(0.50);
      dl.p95_sec = h.quantile(0.95);
      dl.p99_sec = h.quantile(0.99);
      dl.mean_sec = h.mean();
    }
    r.domain_latency.push_back(dl);
  }

  const std::uint64_t dispatched = redirects + direct_deliveries;
  r.redirected_pages = redirects;
  r.redirected_fraction =
      dispatched ? static_cast<double>(redirects) / static_cast<double>(dispatched) : 0.0;

  r.mean_ttl = ttl_stat.mean();
  // Every slice's alarm registry, autoscaler and outage calendar saw the
  // same inputs; report the first slice's.
  r.alarm_signals = first.alarms->alarm_signals() + first.alarms->normal_signals();
  r.pool_changes = first.alarms->pool_changes();
  r.final_pool_size = first.alarms->pool_size();
  if (first.autoscaler) {
    r.autoscale_ups = first.autoscaler->scale_up_actions();
    r.autoscale_downs = first.autoscaler->scale_down_actions();
  }
  r.dns_outage_sec = first.fault->dns_calendar().outage_seconds(horizon);
  const double attempts =
      static_cast<double>(r.failed_requests) + static_cast<double>(r.total_pages);
  r.unavailability_fraction =
      attempts > 0 ? static_cast<double>(r.failed_requests) / attempts : 0.0;
  return r;
}

}  // namespace adattl::experiment
