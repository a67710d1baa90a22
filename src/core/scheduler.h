#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/alarm_registry.h"
#include "core/selection_policy.h"
#include "core/ttl_policy.h"
#include "obs/event_tracer.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "sim/stats.h"

namespace adattl::core {

/// What the authoritative DNS returns for one address request: the chosen
/// server's address and the validity period of the mapping.
struct Decision {
  web::ServerId server = 0;
  double ttl_sec = 0.0;
};

/// The authoritative DNS scheduler: selection policy + TTL policy +
/// alarm-based exclusion, with bookkeeping of every decision it makes.
///
/// This is the paper's composite algorithm; e.g. DRR2-TTL/S_K is
/// TwoTierRoundRobinPolicy + AdaptiveTtlPolicy(per-domain classes, server
/// term on).
class DnsScheduler {
 public:
  /// `geo` (optional) makes the scheduler latency-aware: it is handed to
  /// every policy via DecisionContext and used to accumulate RTT-weighted
  /// assignment accounting.
  DnsScheduler(std::string name, std::unique_ptr<SelectionPolicy> selection,
               std::unique_ptr<TtlPolicy> ttl, const AlarmRegistry& alarms,
               std::shared_ptr<const geo::GeoModel> geo = nullptr);

  /// Answers one address request from `domain`.
  Decision schedule(web::DomainId domain);

  /// Registers the scheduler's instruments (decision counter, TTL and
  /// eligible-set-size histograms) on `registry` and optionally wires the
  /// event tracer (`clock` stamps trace records; both may be null).
  /// Handles are resolved once here; schedule() never touches the registry.
  void bind_observability(obs::MetricsRegistry* registry, obs::EventTracer* tracer,
                          const sim::Simulator* clock);

  const std::string& name() const { return name_; }
  const SelectionPolicy& selection() const { return *selection_; }
  const TtlPolicy& ttl_policy() const { return *ttl_; }

  std::uint64_t decisions() const { return decisions_; }
  /// Mappings handed to each server so far (index == ServerId).
  const std::vector<std::uint64_t>& assignments() const { return assignments_; }
  /// Distribution of TTL values handed out.
  const sim::RunningStat& ttl_stat() const { return ttl_stat_; }

  /// Sum of rtt(domain, server) over all decisions, and its per-server
  /// breakdown — the scheduler-side latency objective (zero without geo).
  double assignment_rtt_sum_sec() const { return assignment_rtt_sum_sec_; }
  const std::vector<double>& per_server_assignment_rtt_sec() const {
    return per_server_assignment_rtt_sec_;
  }

 private:
  std::string name_;
  std::unique_ptr<SelectionPolicy> selection_;
  std::unique_ptr<TtlPolicy> ttl_;
  const AlarmRegistry& alarms_;
  std::shared_ptr<const geo::GeoModel> geo_;

  std::uint64_t decisions_ = 0;
  std::vector<std::uint64_t> assignments_;
  sim::RunningStat ttl_stat_;
  double assignment_rtt_sum_sec_ = 0.0;
  std::vector<double> per_server_assignment_rtt_sec_;

  // Observability (unbound handles are pure no-ops; tracer/clock null
  // unless bound — one predictable branch per decision when off).
  obs::Counter obs_decisions_;
  obs::HistogramHandle obs_ttl_;
  obs::HistogramHandle obs_eligible_;
  obs::EventTracer* tracer_ = nullptr;
  const sim::Simulator* clock_ = nullptr;
  bool bound_ = false;
};

}  // namespace adattl::core
