// Statistical validation of the simulation against queueing-theory and
// model-level expectations — the checks that give the reproduced figures
// their credibility.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "experiment/runner.h"
#include "experiment/site.h"
#include "sim/random.h"

namespace adattl {
namespace {

TEST(StatValidation, SingleServerUtilizationMatchesOfferedLoad) {
  // One server, one domain, closed-loop clients: utilization must track
  // N * E[page] / (E[think] + E[response]) / C within tight tolerance.
  experiment::SimulationConfig cfg;
  cfg.cluster.relative = {1.0};
  cfg.cluster.total_capacity_hits_per_sec = 100.0;
  cfg.num_domains = 2;  // perturbation machinery needs >= 2; domain 1 idle-ish
  cfg.total_clients = 6;
  cfg.mean_think_sec = 10.0;
  cfg.policy = "RR";
  cfg.warmup_sec = 200.0;
  cfg.duration_sec = 20000.0;
  cfg.seed = 3;
  experiment::Site site(cfg);
  const experiment::RunResult r = site.run();
  // Response per page ~ M/G/1-ish; measured directly, so use it.
  const double cycle = cfg.mean_think_sec + r.mean_page_response_sec;
  const double expected = 6 * 10.0 / cycle / 100.0;
  EXPECT_NEAR(r.aggregate_utilization, expected, 0.02);
}

TEST(StatValidation, ErlangServiceMatchesMG1QueueingShape) {
  // At utilization rho with Erlang-ish service, mean response must exceed
  // mean service but stay within the M/G/1 ballpark (no pathological
  // queue buildup in the service loop).
  experiment::SimulationConfig cfg;
  cfg.cluster.relative = {1.0};
  cfg.cluster.total_capacity_hits_per_sec = 100.0;
  cfg.num_domains = 2;
  cfg.total_clients = 10;
  cfg.mean_think_sec = 15.0;  // rho ~ 10*10/15.? /100 ~ 0.64
  cfg.policy = "RR";
  cfg.warmup_sec = 200.0;
  cfg.duration_sec = 20000.0;
  cfg.seed = 4;
  experiment::Site site(cfg);
  const experiment::RunResult r = site.run();
  const double mean_service = 10.0 / 100.0;  // 10 hits at 100 hits/s
  EXPECT_GT(r.mean_page_response_sec, mean_service);
  EXPECT_LT(r.mean_page_response_sec, 6.0 * mean_service);
}

TEST(StatValidation, IdealWorkloadServerHitSharesTrackCapacity) {
  // Under the Ideal scenario (uniform domains + PRR) each server's served
  // hit share must converge to its capacity share.
  experiment::SimulationConfig cfg;
  cfg.cluster = web::table2_cluster(50);
  cfg.uniform_clients = true;
  cfg.policy = "PRR-TTL/1";
  cfg.warmup_sec = 200.0;
  cfg.duration_sec = 14400.0;
  cfg.seed = 5;
  experiment::Site site(cfg);
  site.run();
  std::uint64_t total = 0;
  for (int s = 0; s < site.cluster().size(); ++s) {
    total += site.cluster().server(s).hits_served();
  }
  const std::vector<double>& cap = site.cluster().capacities();
  const double cap_total = std::accumulate(cap.begin(), cap.end(), 0.0);
  for (int s = 0; s < site.cluster().size(); ++s) {
    const double share =
        static_cast<double>(site.cluster().server(s).hits_served()) / total;
    EXPECT_NEAR(share, cap[static_cast<std::size_t>(s)] / cap_total, 0.035) << "server " << s;
  }
}

TEST(StatValidation, ZipfDomainHitSharesMatchTheory) {
  // The per-domain hit counters aggregated over servers must reproduce the
  // Zipf shares (clients/think identical across domains).
  experiment::SimulationConfig cfg;
  cfg.policy = "DRR2-TTL/S_K";
  cfg.warmup_sec = 200.0;
  cfg.duration_sec = 10000.0;
  cfg.seed = 6;
  experiment::Site site(cfg);
  site.run();
  std::vector<double> hits(20, 0.0);
  double total = 0.0;
  for (int s = 0; s < site.cluster().size(); ++s) {
    const auto& per_domain = site.cluster().server(s).lifetime_domain_hits();
    for (int d = 0; d < 20; ++d) {
      hits[static_cast<std::size_t>(d)] += static_cast<double>(per_domain[static_cast<std::size_t>(d)]);
      total += static_cast<double>(per_domain[static_cast<std::size_t>(d)]);
    }
  }
  const sim::ZipfDistribution zipf(20, 1.0);
  // Integral client allocation quantizes the shares; compare against the
  // allocation-implied share, not the continuous pmf.
  const std::vector<int> alloc = sim::apportion_largest_remainder(500, zipf.probabilities());
  for (int d = 0; d < 20; ++d) {
    EXPECT_NEAR(hits[static_cast<std::size_t>(d)] / total, alloc[static_cast<std::size_t>(d)] / 500.0, 0.012)
        << "domain " << d;
  }
}

TEST(StatValidation, AddressRequestRateMatchesCalibrationTheory) {
  // For constant TTL: each domain's NS re-resolves once per (TTL + the
  // gap until the next session arrival). With 20 active domains and lazy
  // expiry the measured rate must come in at or below K/TTL and above
  // half of it.
  experiment::SimulationConfig cfg;
  cfg.policy = "PRR-TTL/1";
  cfg.warmup_sec = 200.0;
  cfg.duration_sec = 14400.0;
  cfg.seed = 7;
  experiment::Site site(cfg);
  const experiment::RunResult r = site.run();
  const double upper = 20.0 / 240.0;
  EXPECT_LE(r.address_request_rate, upper * 1.02);
  EXPECT_GE(r.address_request_rate, upper * 0.5);
}

TEST(StatValidation, WithinRunCiIsTightForLongRuns) {
  experiment::SimulationConfig cfg;
  cfg.policy = "DRR2-TTL/S_K";
  cfg.warmup_sec = 600.0;
  cfg.duration_sec = 18000.0;  // the paper's 5 hours
  cfg.seed = 8;
  const experiment::RunResult r = experiment::Site(cfg).run();
  // Paper: "95% confidence interval within 4% of the mean". Batch means
  // over 10-minute batches of a 5-hour run should land in that ballpark.
  EXPECT_GT(r.max_util_ci_relative, 0.0);
  EXPECT_LT(r.max_util_ci_relative, 0.08);
}

TEST(StatValidation, ConfiguredWarmupCoversMserEstimate) {
  // Record the max-utilization series from t = 0 (no warm-up discard) and
  // let MSER-5 find the transient. Our default 600 s (75 ticks) must be at
  // least what the data itself asks for.
  experiment::SimulationConfig cfg;
  cfg.policy = "DRR2-TTL/S_K";
  cfg.warmup_sec = 0.0;
  cfg.duration_sec = 10000.0;
  cfg.seed = 10;
  cfg.trace_enabled = true;
  experiment::Site site(cfg);
  site.run();
  const obs::EventTracer& tracer = *site.event_tracer();
  ASSERT_EQ(tracer.dropped(), 0u);
  // Each tick's kUtilization records run s0, s1, ...: s0 opens a sample.
  std::vector<double> series;
  for (const obs::TraceRecord& r : tracer.records()) {
    if (r.kind != obs::TraceKind::kUtilization) continue;
    if (r.a == 0) {
      series.push_back(r.value);
    } else {
      series.back() = std::max(series.back(), r.value);
    }
  }
  const std::size_t suggested_ticks = sim::mser5_truncation(series);
  EXPECT_LE(suggested_ticks * 8.0, 600.0)
      << "the max-util series wants more warm-up than the configured default";
}

TEST(StatValidation, ReplicationVarianceIsSmallRelativeToPolicyGaps) {
  // The figure claims rest on policy gaps exceeding replication noise.
  experiment::SimulationConfig cfg;
  cfg.cluster = web::table2_cluster(35);
  cfg.warmup_sec = 300.0;
  cfg.duration_sec = 7200.0;
  cfg.seed = 9;
  const experiment::ReplicatedResult rr = experiment::run_replications(
      [&] { auto c = cfg; c.policy = "RR"; return c; }(), 3);
  const experiment::ReplicatedResult adaptive = experiment::run_replications(
      [&] { auto c = cfg; c.policy = "DRR2-TTL/S_K"; return c; }(), 3);
  const sim::MeanCi a = rr.prob_below(0.98);
  const sim::MeanCi b = adaptive.prob_below(0.98);
  EXPECT_GT(b.mean - a.mean, a.halfwidth + b.halfwidth);
}

}  // namespace
}  // namespace adattl
