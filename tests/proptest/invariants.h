#pragma once

// Conservation laws of one full Site run — the single place the invariant
// logic lives. Both the randomized property suites and the fixed
// representative-policy cases (migrated from test_properties.cpp) call
// this checker, so a law added here is enforced everywhere at once.
//
// The laws are fault-aware: they hold verbatim for crash/pause/degrade
// schedules and authoritative-DNS outages, because every counter involved
// is conserved by construction (a page is served, lost, rejected, or
// still queued — never two of those).

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>

#include "experiment/site.h"

namespace adattl::proptest {

/// Asserts every cross-layer conservation law on a finished run. `site`
/// must be the Site that produced `r` (the checker reads the live object
/// graph: scheduler tallies, per-server counters, per-NS cache counters).
/// Each slice is a closed sub-site for its domains, so every law is summed
/// over site.shard(s); a one-slice site is the plain case.
inline void check_run_conservation(experiment::Site& site, const experiment::RunResult& r) {
  const experiment::SimulationConfig& cfg = site.config();
  const double horizon = cfg.warmup_sec + cfg.duration_sec;

  std::uint64_t decisions = 0;
  std::uint64_t assigned = 0;
  std::uint64_t served_pages = 0;
  std::uint64_t served_hits = 0;
  std::uint64_t queued_pages = 0;
  std::uint64_t lifetime_hits = 0;
  std::uint64_t lost_pages = 0;
  std::uint64_t lost_hits = 0;
  std::uint64_t rejected_pages = 0;
  int owned_domains = 0;
  for (int sh = 0; sh < site.shard_count(); ++sh) {
    const experiment::Slice& slice = site.shard(sh);
    owned_domains += static_cast<int>(slice.domains.size());
    decisions += slice.bundle.scheduler->decisions();
    for (std::uint64_t a : slice.bundle.scheduler->assignments()) assigned += a;
    for (int s = 0; s < slice.cluster->size(); ++s) {
      const web::WebServer& sv = slice.cluster->server(s);
      served_pages += sv.pages_served();
      served_hits += sv.hits_served();
      queued_pages += sv.queue_length();
      lost_pages += sv.lost_pages();
      lost_hits += sv.lost_hits();
      rejected_pages += sv.rejected_pages();
      const auto& per_domain = sv.lifetime_domain_hits();
      lifetime_hits = std::accumulate(per_domain.begin(), per_domain.end(), lifetime_hits);
    }
  }
  EXPECT_EQ(owned_domains, cfg.num_domains);  // the partition covers every domain once

  // ---- DNS decision conservation: every authoritative query is exactly
  // one scheduler decision, and per-server assignments partition them ----
  EXPECT_EQ(r.authoritative_queries, decisions);
  EXPECT_EQ(assigned, decisions);
  std::uint64_t ns_auth = 0;
  std::uint64_t ns_hits = 0;
  for (int d = 0; d < cfg.num_domains; ++d) {
    for (int rep = 0; rep < cfg.ns_per_domain; ++rep) {
      ns_auth += site.name_server(d, rep).authoritative_queries();
      ns_hits += site.name_server(d, rep).cache_hits();
    }
  }
  EXPECT_EQ(ns_auth, r.authoritative_queries);
  EXPECT_EQ(ns_hits, r.ns_cache_hits);

  // ---- Page/hit conservation across every cluster replica ----
  EXPECT_EQ(r.lost_pages, lost_pages);
  EXPECT_EQ(r.lost_hits, lost_hits);
  EXPECT_EQ(r.total_hits, served_hits);

  // Crash accounting: everything a server accepted was served, lost to a
  // crash, or is still queued at the horizon. Hits are tallied at
  // submission, so the lifetime counters decompose the same way; queued
  // pages carry >= 1 hit each, and exactly 0 hits remain unaccounted when
  // the queues drained.
  EXPECT_GE(lifetime_hits, served_hits + lost_hits + queued_pages);
  if (queued_pages == 0) {
    EXPECT_EQ(lifetime_hits, served_hits + lost_hits);
  }

  // Attempt conservation: each requested page is one attempt, each failure
  // (lost or rejected) spawns at most one retry attempt. Every attempt is
  // either dispatched to some server (accepted or rejected) or still in
  // limbo — in network flight or awaiting its retry — and each client has
  // at most one page in progress, bounding the limbo by the population.
  const std::uint64_t accepted = served_pages + lost_pages + queued_pages;
  const std::uint64_t attempts = r.total_pages + r.failed_requests;
  EXPECT_LE(accepted + rejected_pages, attempts);
  EXPECT_LE(attempts - accepted - rejected_pages,
            static_cast<std::uint64_t>(cfg.total_clients));

  // ---- Failure accounting identities ----
  EXPECT_EQ(r.failed_requests, lost_pages + rejected_pages);
  const double attempts_d = static_cast<double>(attempts);
  EXPECT_NEAR(r.unavailability_fraction,
              attempts > 0 ? static_cast<double>(r.failed_requests) / attempts_d : 0.0, 1e-12);

  // ---- Physical bounds (the merge clamps a sharded utilization at 1) ----
  for (double u : r.mean_server_util) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0 + 1e-9);
  }
  EXPECT_GE(r.prob_below_090, 0.0);
  EXPECT_LE(r.prob_below_098, 1.0);
  EXPECT_LE(r.prob_below_090, r.prob_below_098 + 1e-12);
  EXPECT_GE(r.dns_outage_sec, 0.0);
  EXPECT_LE(r.dns_outage_sec, horizon + 1e-9);
  if (r.authoritative_queries > 0) {
    EXPECT_GT(r.mean_ttl, 0.0);
  }
  EXPECT_GE(r.mean_page_response_sec, 0.0);
}

}  // namespace adattl::proptest
