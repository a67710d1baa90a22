// Conservation laws of a full simulation on randomized configurations
// (ROADMAP invariant: authoritative decisions == NS cache misses, pages
// and hits conserved end to end), plus the fixed representative-policy
// cases migrated from tests/test_properties.cpp. The invariant logic
// itself lives in invariants.h so it is written exactly once.
#include <gtest/gtest.h>

#include <string>

#include "experiment/site.h"
#include "invariants.h"
#include "proptest.h"
#include "web/cluster.h"

namespace adattl {
namespace {

using proptest::ConfigGen;
using proptest::for_each_case;
using proptest::Profile;
using proptest::PropertyCase;

TEST(ConservationProperty, RandomizedConfigs) {
  for_each_case("proptest_conservation", 100, [](PropertyCase& pc) {
    ConfigGen gen(pc.rng);
    const proptest::GeneratedConfig& gc = pc.attach(gen.draw(Profile::kShortRun));
    experiment::Site site(gc.config());
    const experiment::RunResult r = site.run();
    // Liveness: a generated config must actually exercise the pipeline —
    // a run with no traffic would satisfy every conservation law vacuously.
    ASSERT_GT(r.total_pages, 0u);
    ASSERT_GT(r.authoritative_queries, 0u);
    proptest::check_run_conservation(site, r);
  });
}

// The same laws across the domain-sharded path (DESIGN.md §16): the
// generated config reruns with the domains partitioned over a random
// shard count, and the checker also proves the partition covers
// every domain exactly once and per-shard sums equal the aggregate.
TEST(ConservationProperty, RandomizedShardedConfigs) {
  for_each_case("proptest_conservation_sharded", 40, [](PropertyCase& pc) {
    ConfigGen gen(pc.rng);
    const proptest::GeneratedConfig& gc = pc.attach(gen.draw(Profile::kShortRun));
    experiment::SimulationConfig cfg = gc.config();
    // Sharded runs reject redirection and the obs backends; strip them
    // rather than discarding the case so the draw distribution is kept.
    cfg.redirect_enabled = false;
    cfg.metrics_enabled = false;
    cfg.trace_enabled = false;
    cfg.shard_domains = true;
    cfg.shard_count = static_cast<int>(pc.rng.uniform_int(1, 6));
    experiment::Site site(cfg);
    const experiment::RunResult r = site.run();
    ASSERT_GT(r.total_pages, 0u);
    ASSERT_GT(r.authoritative_queries, 0u);
    proptest::check_run_conservation(site, r);
  });
}

// Migrated from test_properties.cpp: the representative policy subset at
// the paper's nominal scale (heterogeneity 50, 500 clients, fixed seed),
// now running the shared checker — strictly stronger than the bespoke
// bounds the old suite asserted.
class RepresentativePolicyConservation : public ::testing::TestWithParam<std::string> {};

TEST_P(RepresentativePolicyConservation, CountsAreConsistent) {
  experiment::SimulationConfig cfg;
  cfg.cluster = web::table2_cluster(50);
  cfg.policy = GetParam();
  cfg.warmup_sec = 100.0;
  cfg.duration_sec = 900.0;
  cfg.seed = 31;
  experiment::Site site(cfg);
  const experiment::RunResult r = site.run();
  proptest::check_run_conservation(site, r);
}

INSTANTIATE_TEST_SUITE_P(RepresentativePolicies, RepresentativePolicyConservation,
                         ::testing::Values("RR", "RR2", "DAL", "PRR-TTL/1", "PRR2-TTL/K",
                                           "DRR-TTL/S_2", "DRR2-TTL/S_K"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '-' || c == '/') c = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace adattl
