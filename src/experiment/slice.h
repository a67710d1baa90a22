#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/alarm_registry.h"
#include "core/autoscaler.h"
#include "core/load_estimator.h"
#include "core/policy_factory.h"
#include "dnscache/client_cache.h"
#include "dnscache/name_server.h"
#include "experiment/config.h"
#include "experiment/metrics.h"
#include "fault/fault_injector.h"
#include "geo/geo_model.h"
#include "obs/event_tracer.h"
#include "obs/metrics.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "web/cluster.h"
#include "web/dispatcher.h"
#include "workload/client_pool.h"
#include "workload/domain_set.h"

namespace adattl::experiment {

/// Wall-clock phase breakdown of one run (host time, not simulated time).
/// Purely additive observability: simulation results never depend on it.
struct RunProfile {
  double setup_sec = 0.0;        ///< Site construction (object-graph wiring)
  double warmup_sec = 0.0;       ///< event loop up to the warm-up boundary
  double measurement_sec = 0.0;  ///< event loop over the measured period
  double collect_sec = 0.0;      ///< result aggregation after the loop
  double total() const { return setup_sec + warmup_sec + measurement_sec + collect_sec; }
};

/// Aggregate outcome of one simulation run.
struct RunResult {
  /// Master seed the run was built with (SimulationConfig::seed) — lets
  /// replication outputs be traced back to their exact seed derivation.
  std::uint64_t seed = 0;
  sim::EmpiricalCdf max_util_cdf{500};
  double prob_below_090 = 0.0;
  double prob_below_098 = 0.0;
  double mean_max_utilization = 0.0;
  /// Within-run 95% batch-means CI of the mean max utilization, as a
  /// fraction of the mean (paper: "within 4%").
  double max_util_ci_relative = 0.0;
  std::vector<double> mean_server_util;
  /// Capacity-weighted mean utilization (≈ offered load / total capacity).
  double aggregate_utilization = 0.0;

  std::uint64_t total_pages = 0;
  std::uint64_t total_hits = 0;
  std::uint64_t authoritative_queries = 0;
  std::uint64_t ns_cache_hits = 0;
  /// Resolutions absorbed by per-client caches (0 unless enabled).
  std::uint64_t client_cache_hits = 0;
  /// Address requests answered by the authoritative DNS per second —
  /// must match across calibrated policies (§4.1 fairness rule).
  double address_request_rate = 0.0;
  /// Fraction of page requests whose mapping decision the DNS made
  /// directly (paper: "often below 4%").
  double dns_controlled_fraction = 0.0;

  double mean_ttl = 0.0;
  std::uint64_t alarm_signals = 0;
  std::uint64_t events_dispatched = 0;

  /// Mean page response time (queueing + service) across all servers,
  /// weighted by pages served; the per-server breakdown shows how badly
  /// overload punishes the weak servers under non-adaptive policies.
  double mean_page_response_sec = 0.0;
  std::vector<double> per_server_response_sec;
  /// Site-wide response-time percentiles (merged server histograms).
  /// These are server-side times; with geography enabled, the client
  /// additionally sees mean_network_rtt_sec of flight time per page.
  double response_p50_sec = 0.0;
  double response_p95_sec = 0.0;
  double response_p99_sec = 0.0;
  /// Mean network round-trip per page (0 without a geo model).
  double mean_network_rtt_sec = 0.0;

  // ---- Latency as a first-class result (extension; geo runs) ----
  /// Mean rtt(domain, chosen server) per DNS decision — the scheduler-side
  /// latency objective, independent of how many pages ride each mapping.
  double mean_assignment_rtt_sec = 0.0;
  /// Each server's share of the total assignment RTT mass: how much of the
  /// latency bill each server is responsible for (empty without geo).
  std::vector<double> rtt_weighted_assignment_share;
  /// Per-domain client-perceived page response time (request flight +
  /// queue + service + reply flight), summarized from per-domain
  /// histograms kept by the client pool.
  struct DomainLatency {
    double p50_sec = 0.0;
    double p95_sec = 0.0;
    double p99_sec = 0.0;
    double mean_sec = 0.0;
    std::uint64_t pages = 0;
  };
  std::vector<DomainLatency> domain_latency;

  // ---- Elastic pool accounting (0 / initial size when static) ----
  /// DNS pool membership flips over the run (scripted + autoscaler).
  std::uint64_t pool_changes = 0;
  /// Autoscaler-initiated actions (subset of pool_changes).
  std::uint64_t autoscale_ups = 0;
  std::uint64_t autoscale_downs = 0;
  /// Pool size when the run ended.
  int final_pool_size = 0;

  /// Server-side redirection counters (0 unless enabled).
  std::uint64_t redirected_pages = 0;
  double redirected_fraction = 0.0;

  // ---- Failure accounting (all 0 in fault-free runs) ----
  /// Client-visible page failures: submissions rejected by a crashed
  /// server plus pages dropped (queued or in flight) by a crash.
  std::uint64_t failed_requests = 0;
  /// Pages/hits dropped by crashes across all servers.
  std::uint64_t lost_pages = 0;
  std::uint64_t lost_hits = 0;
  /// Seconds the authoritative DNS was unreachable within the horizon.
  double dns_outage_sec = 0.0;
  /// Failed page attempts over all page attempts (failed + requested);
  /// the site-level unavailability a client population experienced.
  double unavailability_fraction = 0.0;

  /// End-of-run metrics snapshot; null unless config.metrics_enabled.
  /// shared_ptr keeps RunResult cheaply copyable across sweep plumbing.
  std::shared_ptr<const obs::MetricsSnapshot> metrics;
  /// Wall-clock phase breakdown (always filled; near-zero cost).
  RunProfile profile;
};

/// The read-only inputs every slice of one run shares.
struct SiteInputs {
  /// Unperturbed workload: the DNS's prior domain weights.
  workload::DomainSet base;
  /// Perturbed (actual) workload the clients follow — the gap to `base` is
  /// the paper's "estimation error".
  workload::DomainSet domains;
  /// Null when geography is disabled.
  std::shared_ptr<const geo::GeoModel> geo;
  /// Legacy --outage windows as pauses, then config.faults. Their order is
  /// the insertion order (and thus the same-timestamp FIFO tie order) of
  /// the fault events.
  fault::FaultSchedule faults;
};

/// Derives the run-wide inputs from an already scaled and validated config.
SiteInputs make_site_inputs(const SimulationConfig& config);

/// One slice of a simulation: a private simulator plus every mutable
/// object its domains touch — think-time model, cluster, fault injector,
/// dispatcher, alarm registry, autoscaler, DNS scheduler, estimator, name
/// servers, client caches and pooled clients. The serial Site is one slice
/// owning every domain; a domain-sharded Site runs one slice per shard.
///
/// Member order is lifetime order: the client pool holds references into
/// the dispatcher, think model and name servers, which hold references
/// into the scheduler, cluster and simulator, so members are destroyed
/// clients first, simulator last. Treat as read-only from outside.
struct Slice {
  sim::RngStream rng{0};
  std::vector<int> domains;  ///< owned global domain ids, ascending
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<workload::ThinkTimeModel> think;
  std::unique_ptr<web::Cluster> cluster;
  std::unique_ptr<fault::FaultInjector> fault;
  std::unique_ptr<web::PageDispatcher> dispatcher;
  std::unique_ptr<core::AlarmRegistry> alarms;
  /// Null unless autoscale_enabled. Every slice's autoscaler observes the
  /// same site view in the same order, so all slices take identical pool
  /// actions at every tick.
  std::unique_ptr<core::Autoscaler> autoscaler;
  core::SchedulerBundle bundle;
  std::unique_ptr<core::LoadEstimator> estimator;
  /// NS replicas of owned domain k live at [k*ns_per_domain, ...).
  std::vector<std::unique_ptr<dnscache::NameServer>> name_servers;
  std::vector<std::unique_ptr<dnscache::ClientCache>> client_caches;
  std::unique_ptr<workload::ClientPool> clients;
  /// Per-server cumulative busy time at the previous monitor tick.
  std::vector<double> prev_busy;
};

/// Wires slice `shard` of `num_shards`: it owns domains shard,
/// shard + num_shards, ... and fires only their rate shifts and trace
/// points. Every random draw (cluster seeds, policy streams, client
/// seeds and arrival stagger) comes from `rng`, in that order.
std::unique_ptr<Slice> build_slice(const SimulationConfig& config, const SiteInputs& inputs,
                                   int num_shards, int shard, sim::RngStream rng);

/// One monitor tick of site feedback: every slice's alarm registry, then
/// its autoscaler, sees the same site view (`util`, `queues`); then the
/// max-utilization tracker; then, every estimator_collect_every_ticks-th
/// tick (counted in `ticks`), every slice's estimator gets the summed
/// drained per-domain hits, so all scheduler replicas keep identical
/// feedback state. `tracer`, when set, first records one kUtilization per
/// server in server order, and later the estimator update.
void feed_tick(std::span<const std::unique_ptr<Slice>> slices,
               const SimulationConfig& config, MaxUtilizationTracker& tracker, int& ticks,
               sim::SimTime now, const std::vector<double>& util,
               const std::vector<std::size_t>& queues, obs::EventTracer* tracer = nullptr);

/// The run's result summed over `slices` (everything but `metrics` and
/// `profile`, which the caller owns). Counters sum; per-server statistics
/// merge in slice order; every domain's latency comes from the slice
/// that owns it; alarm, pool and DNS-outage state, which every slice
/// shares, comes from the first slice.
RunResult aggregate(std::span<const std::unique_ptr<Slice>> slices,
                    const SimulationConfig& config, const MaxUtilizationTracker& tracker,
                    double horizon);

}  // namespace adattl::experiment
