// Domain-sharded run mode: determinism (bit-identity across repeats and
// across worker counts), slice layout, conservation laws summed over the
// slices, the scale knob, and the validation fence on redirection.
#include "experiment/site.h"

#include <gtest/gtest.h>

#include "proptest/invariants.h"

namespace adattl::experiment {
namespace {

SimulationConfig sharded_config(const std::string& policy = "DRR2-TTL/S_K") {
  SimulationConfig cfg;
  cfg.cluster = web::table2_cluster(35);
  cfg.policy = policy;
  cfg.warmup_sec = 300.0;
  cfg.duration_sec = 1200.0;
  cfg.seed = 77;
  cfg.shard_domains = true;
  cfg.shard_count = 4;
  return cfg;
}

void expect_bit_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.total_pages, b.total_pages);
  EXPECT_EQ(a.total_hits, b.total_hits);
  EXPECT_EQ(a.authoritative_queries, b.authoritative_queries);
  EXPECT_EQ(a.ns_cache_hits, b.ns_cache_hits);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.alarm_signals, b.alarm_signals);
  EXPECT_EQ(a.failed_requests, b.failed_requests);
  // Doubles compared for exact equality on purpose: the merge runs in
  // fixed shard order on one thread, so even floating-point sums must
  // come out byte-for-byte equal.
  EXPECT_EQ(a.mean_max_utilization, b.mean_max_utilization);
  EXPECT_EQ(a.prob_below_090, b.prob_below_090);
  EXPECT_EQ(a.prob_below_098, b.prob_below_098);
  EXPECT_EQ(a.aggregate_utilization, b.aggregate_utilization);
  EXPECT_EQ(a.mean_page_response_sec, b.mean_page_response_sec);
  EXPECT_EQ(a.mean_ttl, b.mean_ttl);
  EXPECT_EQ(a.mean_network_rtt_sec, b.mean_network_rtt_sec);
  ASSERT_EQ(a.mean_server_util.size(), b.mean_server_util.size());
  for (std::size_t i = 0; i < a.mean_server_util.size(); ++i) {
    EXPECT_EQ(a.mean_server_util[i], b.mean_server_util[i]);
  }
  ASSERT_EQ(a.per_server_response_sec.size(), b.per_server_response_sec.size());
  for (std::size_t i = 0; i < a.per_server_response_sec.size(); ++i) {
    EXPECT_EQ(a.per_server_response_sec[i], b.per_server_response_sec[i]);
  }
}

TEST(ShardedSite, RepeatedRunsAreBitIdentical) {
  Site a(sharded_config());
  Site b(sharded_config());
  expect_bit_identical(a.run(), b.run());
}

TEST(ShardedSite, WorkerCountDoesNotChangeResults) {
  // The executor only decides which thread advances which slice; the
  // tick merge is single-threaded and fixed-order, so 1 worker and 4
  // workers must produce the same bytes.
  Site serial(sharded_config());
  Site parallel(sharded_config());
  ParallelExecutor one(1);
  ParallelExecutor four(4);
  expect_bit_identical(serial.run(one), parallel.run(four));
}

TEST(ShardedSite, ShardsPartitionDomainsRoundRobin) {
  SimulationConfig cfg = sharded_config();
  cfg.shard_count = 3;
  Site site(cfg);
  ASSERT_EQ(site.shard_count(), 3);
  std::vector<int> seen(static_cast<std::size_t>(cfg.num_domains), 0);
  for (int s = 0; s < site.shard_count(); ++s) {
    for (int d : site.shard(s).domains) {
      EXPECT_EQ(d % 3, s);
      seen[static_cast<std::size_t>(d)]++;
    }
  }
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(ShardedSite, ShardCountClampsToDomains) {
  SimulationConfig cfg = sharded_config();
  cfg.shard_count = 500;  // far more than the 20 domains
  Site site(cfg);
  EXPECT_EQ(site.shard_count(), cfg.num_domains);
}

TEST(ShardedSite, ConservationLawsHoldAcrossShards) {
  Site site(sharded_config());
  const RunResult r = site.run();
  proptest::check_run_conservation(site, r);
  EXPECT_GT(r.total_pages, 0u);
  EXPECT_GT(r.total_hits, 0u);
}

TEST(ShardedSite, ConservationHoldsWithFaultsAndGeo) {
  SimulationConfig cfg = sharded_config("RR");
  cfg.geo_regions = 4;
  cfg.geo_intra_rtt_sec = 0.02;
  cfg.geo_inter_rtt_sec = 0.2;
  fault::CrashWindow crash;
  crash.start_sec = 600.0;
  crash.duration_sec = 300.0;
  crash.server = 0;
  cfg.faults.crashes.push_back(crash);
  Site site(cfg);
  const RunResult r = site.run();
  proptest::check_run_conservation(site, r);
  EXPECT_GT(r.mean_network_rtt_sec, 0.0);
  EXPECT_GT(r.failed_requests, 0u);
}

TEST(ShardedSite, TracksUnshardedRunWithinTolerance) {
  // Sharded mode is a documented approximation (full-capacity replicas
  // under-model cross-shard queueing), but at the paper's operating point
  // the headline aggregate must stay close to the exact serial run.
  SimulationConfig serial_cfg = sharded_config("RR");
  serial_cfg.shard_domains = false;
  Site serial(serial_cfg);
  Site sharded(sharded_config("RR"));
  const RunResult rs = serial.run();
  const RunResult rp = sharded.run();
  EXPECT_NEAR(rp.aggregate_utilization, rs.aggregate_utilization, 0.05);
  const double hit_ratio = static_cast<double>(rp.total_hits) /
                           static_cast<double>(rs.total_hits);
  EXPECT_NEAR(hit_ratio, 1.0, 0.05);
}

TEST(ShardedSite, SingleUse) {
  Site site(sharded_config());
  (void)site.run();
  EXPECT_THROW((void)site.run(), std::logic_error);
}

TEST(ShardedSite, ValidationRejectsShardingWithRedirection) {
  SimulationConfig cfg = sharded_config();
  cfg.redirect_enabled = true;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ScaleKnob, ScaledMultipliesClientsAndCapacityTogether) {
  SimulationConfig cfg = sharded_config();
  cfg.scale = 4.0;
  const SimulationConfig big = cfg.scaled();
  EXPECT_EQ(big.total_clients, 4 * cfg.total_clients);
  EXPECT_DOUBLE_EQ(big.cluster.total_capacity_hits_per_sec,
                   4.0 * cfg.cluster.total_capacity_hits_per_sec);
  EXPECT_DOUBLE_EQ(big.scale, 1.0);  // applied exactly once
}

TEST(ScaleKnob, IdentityAtOne) {
  const SimulationConfig cfg = sharded_config();
  const SimulationConfig same = cfg.scaled();
  EXPECT_EQ(same.total_clients, cfg.total_clients);
  EXPECT_DOUBLE_EQ(same.cluster.total_capacity_hits_per_sec,
                   cfg.cluster.total_capacity_hits_per_sec);
}

TEST(ScaleKnob, ScaleKeepsPerClientLoadInvariant) {
  // Doubling scale doubles clients and capacity: per-server utilization
  // must stay at the same operating point (it's an intensive quantity).
  SimulationConfig cfg;
  cfg.cluster = web::table2_cluster(35);
  cfg.policy = "RR";
  cfg.warmup_sec = 300.0;
  cfg.duration_sec = 1200.0;
  cfg.seed = 5;
  Site base(cfg);
  cfg.scale = 2.0;
  Site doubled(cfg);
  const RunResult rb = base.run();
  const RunResult rd = doubled.run();
  EXPECT_NEAR(rd.aggregate_utilization, rb.aggregate_utilization, 0.04);
  EXPECT_NEAR(static_cast<double>(rd.total_hits) / static_cast<double>(rb.total_hits),
              2.0, 0.1);
}

}  // namespace
}  // namespace adattl::experiment
