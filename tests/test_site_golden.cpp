// Whole-result golden digests for both run modes. Where
// test_decision_golden pins eleven aggregates on fault-free configs, this
// suite folds EVERY deterministic RunResult field (all but the wall-clock
// `profile`) — per-domain latency, RTT shares, redirect/pool/failure
// accounting and the metrics snapshot's names and values — over
// feature-rich configs: geography, client caches, a crash, a degrade
// window, an authoritative-DNS outage, a legacy --outage stall, a scripted
// scale-down, the autoscaler, a rate shift, a trace point, 20% estimation
// error and the online estimator. The serial cases also fold the event
// trace (CSV export) when tracing is on.
//
// The serial digests were captured while the serial and sharded modes
// still ran through separate classes, so they pin the one Site class and
// its slices (experiment/slice.h) to the old behaviour. The sharded
// digests were re-captured when the sharded mode took the serial run's
// counted tick event (each slice now counts 150 ticks in
// events_dispatched), and OneShard became the one-slice run. A changed
// digest is a behavioural change to the simulation: justify it and
// re-capture, never adjust the test silently.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ostream>
#include <string>

#include "experiment/config.h"
#include "experiment/site.h"

namespace adattl {
namespace {

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t fnv1a_d(std::uint64_t h, double d) {
  return fnv1a(h, std::bit_cast<std::uint64_t>(d));
}

std::uint64_t fnv1a_s(std::uint64_t h, const std::string& s) {
  h = fnv1a(h, s.size());
  for (char ch : s) h = fnv1a(h, static_cast<unsigned char>(ch));
  return h;
}

std::uint64_t digest_result(const experiment::RunResult& r) {
  std::uint64_t h = 1469598103934665603ULL;
  h = fnv1a(h, r.seed);
  h = fnv1a(h, r.max_util_cdf.count());
  for (double p : r.max_util_cdf.cumulative()) h = fnv1a_d(h, p);
  h = fnv1a_d(h, r.prob_below_090);
  h = fnv1a_d(h, r.prob_below_098);
  h = fnv1a_d(h, r.mean_max_utilization);
  h = fnv1a_d(h, r.max_util_ci_relative);
  h = fnv1a(h, r.mean_server_util.size());
  for (double u : r.mean_server_util) h = fnv1a_d(h, u);
  h = fnv1a_d(h, r.aggregate_utilization);

  h = fnv1a(h, r.total_pages);
  h = fnv1a(h, r.total_hits);
  h = fnv1a(h, r.authoritative_queries);
  h = fnv1a(h, r.ns_cache_hits);
  h = fnv1a(h, r.client_cache_hits);
  h = fnv1a_d(h, r.address_request_rate);
  h = fnv1a_d(h, r.dns_controlled_fraction);
  h = fnv1a_d(h, r.mean_ttl);
  h = fnv1a(h, r.alarm_signals);
  h = fnv1a(h, r.events_dispatched);

  h = fnv1a_d(h, r.mean_page_response_sec);
  h = fnv1a(h, r.per_server_response_sec.size());
  for (double s : r.per_server_response_sec) h = fnv1a_d(h, s);
  h = fnv1a_d(h, r.response_p50_sec);
  h = fnv1a_d(h, r.response_p95_sec);
  h = fnv1a_d(h, r.response_p99_sec);
  h = fnv1a_d(h, r.mean_network_rtt_sec);

  h = fnv1a_d(h, r.mean_assignment_rtt_sec);
  h = fnv1a(h, r.rtt_weighted_assignment_share.size());
  for (double s : r.rtt_weighted_assignment_share) h = fnv1a_d(h, s);
  h = fnv1a(h, r.domain_latency.size());
  for (const experiment::RunResult::DomainLatency& dl : r.domain_latency) {
    h = fnv1a_d(h, dl.p50_sec);
    h = fnv1a_d(h, dl.p95_sec);
    h = fnv1a_d(h, dl.p99_sec);
    h = fnv1a_d(h, dl.mean_sec);
    h = fnv1a(h, dl.pages);
  }

  h = fnv1a(h, r.pool_changes);
  h = fnv1a(h, r.autoscale_ups);
  h = fnv1a(h, r.autoscale_downs);
  h = fnv1a(h, static_cast<std::uint64_t>(r.final_pool_size));
  h = fnv1a(h, r.redirected_pages);
  h = fnv1a_d(h, r.redirected_fraction);

  h = fnv1a(h, r.failed_requests);
  h = fnv1a(h, r.lost_pages);
  h = fnv1a(h, r.lost_hits);
  h = fnv1a_d(h, r.dns_outage_sec);
  h = fnv1a_d(h, r.unavailability_fraction);

  h = fnv1a(h, r.metrics ? 1 : 0);
  if (r.metrics) {
    h = fnv1a(h, r.metrics->metrics.size());
    for (const obs::MetricsSnapshot::Metric& m : r.metrics->metrics) {
      h = fnv1a_s(h, m.name);
      h = fnv1a(h, static_cast<std::uint64_t>(m.kind));
      h = fnv1a_d(h, m.value);
      h = fnv1a_d(h, m.upper);
      h = fnv1a(h, m.count);
      h = fnv1a_d(h, m.sum);
      h = fnv1a(h, m.bins.size());
      for (std::uint64_t b : m.bins) h = fnv1a(h, b);
    }
  }
  return h;
}

// Every fault and workload feature a run can carry, on a 7-server site
// short enough for the unit-test budget. Fault times sit inside the
// 1200 s horizon so each one fires.
experiment::SimulationConfig rich_config(const std::string& policy, std::uint64_t seed) {
  experiment::SimulationConfig c;
  c.policy = policy;
  c.num_domains = 12;
  c.total_clients = 240;
  c.warmup_sec = 120.0;
  c.duration_sec = 1080.0;
  c.seed = seed;
  c.geo_regions = 3;
  c.client_cache_enabled = true;
  c.rate_perturbation_percent = 20.0;
  c.oracle_weights = false;
  c.alarm_queue_threshold = 40;

  c.faults.crashes.push_back({200.0, 120.0, 1});
  c.faults.degradations.push_back({300.0, 200.0, 2, 0.5});
  c.faults.dns_outages.push_back({400.0, 60.0});
  c.faults.scale_events.push_back({500.0, 6, false});
  c.outages.push_back({250.0, 60.0, 3});

  c.autoscale_enabled = true;
  c.autoscale_min_servers = 3;
  c.autoscale_hysteresis_ticks = 2;

  c.rate_shifts.push_back({350.0, 0, 2.0});
  c.trace_events.push_back({450.0, 2, 3.0});
  return c;
}

struct Golden {
  const char* name;
  std::uint64_t digest;
};

// gtest would otherwise print the raw bytes, and the name pointer among
// them differs on every run of an address-randomised binary, so the test
// names that ctest discovers would differ from build to build.
void PrintTo(const Golden& g, std::ostream* os) { *os << g.name; }

experiment::SimulationConfig serial_config(const std::string& name) {
  if (name == "RedirectMetricsTrace") {
    experiment::SimulationConfig c = rich_config("DRR2-TTL/S_K", 9101);
    c.redirect_enabled = true;
    c.metrics_enabled = true;
    c.trace_enabled = true;
    c.trace_capacity = 4096;
    return c;
  }
  if (name == "CostHoltWinters") {
    experiment::SimulationConfig c = rich_config("COST(0.5)", 9102);
    c.estimator_kind = experiment::EstimatorKind::kHoltWinters;
    return c;
  }
  // "ArTwoNsPerDomain"
  experiment::SimulationConfig c = rich_config("PRR2-TTL/K", 9103);
  c.estimator_kind = experiment::EstimatorKind::kAr;
  c.ns_per_domain = 2;
  return c;
}

experiment::SimulationConfig sharded_config(const std::string& name) {
  experiment::SimulationConfig c;
  if (name == "OneShard") {
    c = rich_config("DRR2-TTL/S_K", 9201);
    c.shard_count = 1;
    c.estimator_kind = experiment::EstimatorKind::kSlidingWindow;
  } else if (name == "ThreeShards") {
    c = rich_config("PRR2-TTL/K", 9202);
    c.shard_count = 3;
  } else {  // "FourShardsGeo"
    c = rich_config("GEO-TTL/K", 9203);
    c.shard_count = 4;
    c.ns_per_domain = 2;
  }
  c.shard_domains = true;
  return c;
}

std::uint64_t serial_digest(const std::string& name) {
  experiment::Site site(serial_config(name));
  std::uint64_t h = digest_result(site.run());
  if (const obs::EventTracer* tracer = site.event_tracer()) {
    h = fnv1a(h, tracer->total_recorded());
    h = fnv1a_s(h, tracer->to_csv());
  }
  return h;
}

std::uint64_t sharded_digest(const std::string& name) {
  experiment::Site site(sharded_config(name));
  return digest_result(site.run());
}

// Identical under ADATTL_JOBS=1 and ADATTL_JOBS=4.
constexpr Golden kSerial[] = {
    {"RedirectMetricsTrace", 0xa0dacb537104abb3ULL},
    {"CostHoltWinters", 0x4103ad270f234a56ULL},
    {"ArTwoNsPerDomain", 0xa5a09607209d166dULL},
};

constexpr Golden kSharded[] = {
    {"OneShard", 0x64693fac95ee9de6ULL},
    {"ThreeShards", 0xc3baf769cfe5134eULL},
    {"FourShardsGeo", 0x16d722407146915bULL},
};

class SerialSiteGolden : public ::testing::TestWithParam<Golden> {};
class ShardedSiteGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(SerialSiteGolden, WholeResultIsBitIdentical) {
  const Golden& g = GetParam();
  const std::uint64_t got = serial_digest(g.name);
  EXPECT_EQ(got, g.digest) << g.name << " digest 0x" << std::hex << got;
}

TEST_P(ShardedSiteGolden, WholeResultIsBitIdentical) {
  const Golden& g = GetParam();
  const std::uint64_t got = sharded_digest(g.name);
  EXPECT_EQ(got, g.digest) << g.name << " digest 0x" << std::hex << got;
}

// shard_domains with one shard is the one-slice run: same stream, same
// tick, same bytes as the serial run of the same config.
TEST(OneSliceSite, OneShardDigestEqualsTheSerialRun) {
  experiment::SimulationConfig serial = sharded_config("OneShard");
  serial.shard_domains = false;
  experiment::Site site(serial);
  EXPECT_EQ(sharded_digest("OneShard"), digest_result(site.run()));
}

INSTANTIATE_TEST_SUITE_P(Configs, SerialSiteGolden, ::testing::ValuesIn(kSerial),
                         [](const ::testing::TestParamInfo<Golden>& info) {
                           return std::string(info.param.name);
                         });

INSTANTIATE_TEST_SUITE_P(Configs, ShardedSiteGolden, ::testing::ValuesIn(kSharded),
                         [](const ::testing::TestParamInfo<Golden>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace adattl
