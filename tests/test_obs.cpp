// Observability layer: metrics registry semantics, tracer ring buffer and
// exporters, phase profiler, and end-to-end wiring through a Site run —
// including the invariant that enabling observability never changes the
// simulation results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiment/report.h"
#include "experiment/runner.h"
#include "experiment/site.h"
#include "obs/event_tracer.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace adattl {
namespace {

// ---------------------------------------------------------------- registry

TEST(MetricsRegistry, CounterGaugeHistogramBasics) {
  obs::MetricsRegistry registry;
  obs::Counter c = registry.counter("c");
  obs::Gauge g = registry.gauge("g");
  obs::HistogramHandle h = registry.histogram("h", 10.0, 10);

  c.inc();
  c.inc(41);
  g.set(2.5);
  g.add(0.5);
  h.observe(0.5);    // bin 0
  h.observe(9.99);   // bin 9
  h.observe(10.0);   // overflow
  h.observe(-1.0);   // clamps to bin 0

  EXPECT_EQ(c.value(), 42u);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  EXPECT_EQ(h.cell().count, 4u);
  EXPECT_EQ(h.cell().bins[0], 2u);
  EXPECT_EQ(h.cell().bins[9], 1u);
  EXPECT_EQ(h.cell().bins[10], 1u);  // overflow slot
  EXPECT_EQ(registry.size(), 3u);
}

TEST(MetricsRegistry, SameNameSharesOneCell) {
  // Per-instance components (e.g. 20 name servers) register the same name
  // and must all hit one aggregate cell.
  obs::MetricsRegistry registry;
  obs::Counter a = registry.counter("ns.cache_hits");
  obs::Counter b = registry.counter("ns.cache_hits");
  a.inc();
  b.inc();
  EXPECT_EQ(a.value(), 2u);
  EXPECT_EQ(b.value(), 2u);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  obs::MetricsRegistry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), std::invalid_argument);
  EXPECT_THROW(registry.histogram("x", 1.0, 4), std::invalid_argument);
  registry.histogram("h", 1.0, 4);
  EXPECT_THROW(registry.histogram("h", 2.0, 4), std::invalid_argument);  // shape change
  EXPECT_THROW(registry.histogram("h", 1.0, 8), std::invalid_argument);
}

TEST(MetricsRegistry, UnboundHandlesAreSafeNoOps) {
  obs::Counter c;
  obs::Gauge g;
  obs::HistogramHandle h;
  c.inc(7);
  g.set(1.0);
  h.observe(0.5);  // pure no-ops: no cell anywhere changes
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.cell().count, 0u);
}

TEST(MetricsRegistry, SnapshotDetachesAndFinds) {
  obs::MetricsRegistry registry;
  obs::Counter c = registry.counter("done");
  obs::HistogramHandle h = registry.histogram("lat", 2.0, 4);
  c.inc(3);
  h.observe(1.0);
  h.observe(5.0);

  const obs::MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.metrics.size(), 2u);
  const obs::MetricsSnapshot::Metric* done = snap.find("done");
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(done->kind, obs::MetricKind::kCounter);
  EXPECT_DOUBLE_EQ(done->value, 3.0);

  const obs::MetricsSnapshot::Metric* lat = snap.find("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, 2u);
  EXPECT_DOUBLE_EQ(lat->sum, 6.0);
  ASSERT_EQ(lat->bins.size(), 5u);
  EXPECT_EQ(lat->bins[2], 1u);
  EXPECT_EQ(lat->bins[4], 1u);  // overflow

  EXPECT_EQ(snap.find("missing"), nullptr);

  // Detached: later updates don't retroactively change the snapshot.
  c.inc();
  EXPECT_DOUBLE_EQ(snap.find("done")->value, 3.0);
}

TEST(MetricsRegistry, SnapshotSerializesAsJson) {
  obs::MetricsRegistry registry;
  registry.counter("a.count").inc(5);
  registry.gauge("b.depth").set(1.5);
  registry.histogram("c.lat", 1.0, 2).observe(0.3);
  const std::string json = experiment::metrics_to_json(registry.snapshot());
  EXPECT_NE(json.find("\"a.count\":{\"kind\":\"counter\",\"value\":5}"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"b.depth\":{\"kind\":\"gauge\",\"value\":1.5}"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"c.lat\":{\"kind\":\"histogram\",\"count\":1"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"bins\":[1,0,0]"), std::string::npos) << json;
}

// ----------------------------------------------------------------- tracer

TEST(EventTracer, RecordsInOrderAndWraps) {
  obs::EventTracer tracer(4);
  EXPECT_THROW(obs::EventTracer(0), std::invalid_argument);

  for (int i = 0; i < 6; ++i) {
    tracer.record(static_cast<double>(i), obs::TraceKind::kDecision, i, 0, 0.0);
  }
  EXPECT_EQ(tracer.capacity(), 4u);
  EXPECT_EQ(tracer.total_recorded(), 6u);
  EXPECT_EQ(tracer.dropped(), 2u);

  const auto records = tracer.records();
  ASSERT_EQ(records.size(), 4u);
  // Oldest two (0, 1) overwritten; the rest retained chronologically.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(records[static_cast<std::size_t>(i)].a, i + 2);
    EXPECT_DOUBLE_EQ(records[static_cast<std::size_t>(i)].time, static_cast<double>(i + 2));
  }
}

TEST(EventTracer, CsvExport) {
  obs::EventTracer tracer(8);
  tracer.record(1.5, obs::TraceKind::kDecision, 3, 2, 240.0);
  tracer.record(2.0, obs::TraceKind::kAlarm, 1, 0, 0.95);
  const std::string csv = tracer.to_csv();
  EXPECT_NE(csv.find("time,kind,a,b,value"), std::string::npos);
  EXPECT_NE(csv.find("1.500000,decision,3,2,240"), std::string::npos) << csv;
  EXPECT_NE(csv.find("2.000000,alarm,1,0,0.95"), std::string::npos) << csv;
}

TEST(EventTracer, ChromeJsonExport) {
  obs::EventTracer tracer(8);
  tracer.record(1.0, obs::TraceKind::kDecision, 3, 2, 240.0);
  tracer.record(2.0, obs::TraceKind::kNsRefresh, 4, 1, 120.0);
  const std::string json = tracer.to_chrome_json();
  // Track metadata plus one instant event per record, ts in microseconds.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json;
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"dns decisions\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"decision\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1000000.000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"ns_refresh\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\"}"), std::string::npos);
}

TEST(EventTracer, KindNamesAreStable) {
  EXPECT_STREQ(obs::trace_kind_name(obs::TraceKind::kDecision), "decision");
  EXPECT_STREQ(obs::trace_kind_name(obs::TraceKind::kAlarm), "alarm");
  EXPECT_STREQ(obs::trace_kind_name(obs::TraceKind::kNormal), "normal");
  EXPECT_STREQ(obs::trace_kind_name(obs::TraceKind::kNsRefresh), "ns_refresh");
  EXPECT_STREQ(obs::trace_kind_name(obs::TraceKind::kServerPause), "server_pause");
  EXPECT_STREQ(obs::trace_kind_name(obs::TraceKind::kServerResume), "server_resume");
  EXPECT_STREQ(obs::trace_kind_name(obs::TraceKind::kEstimatorUpdate), "estimator_update");
  EXPECT_STREQ(obs::trace_kind_name(obs::TraceKind::kUtilization), "utilization");
}

TEST(EventTracer, UtilizationIsOnTheWebServersTrack) {
  obs::EventTracer tracer(4);
  tracer.record(8.0, obs::TraceKind::kUtilization, 2, 0, 0.5);
  const std::string json = tracer.to_chrome_json();
  EXPECT_NE(json.find("\"name\":\"utilization\",\"cat\":\"sim\",\"ph\":\"i\",\"s\":\"t\","
                      "\"ts\":8000000.000,\"pid\":0,\"tid\":3,"),
            std::string::npos)
      << json;
}

TEST(EventTracer, WriteFileRoundTrips) {
  obs::EventTracer tracer(4);
  tracer.record(8.0, obs::TraceKind::kUtilization, 0, 0, 0.5);
  const std::string path = ::testing::TempDir() + "/adattl_trace_test.csv";
  obs::EventTracer::write_file(path, tracer.utilization_csv());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[256] = {};
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(std::string(buf, n), tracer.utilization_csv());
}

TEST(EventTracer, WriteFileBadPathThrows) {
  EXPECT_THROW(obs::EventTracer::write_file("/nonexistent-dir-xyz/trace.csv", "x"),
               std::runtime_error);
}

// ------------------------------------------- decision log (decisions_csv)

TEST(DecisionLog, RecordsEntriesInOrder) {
  obs::EventTracer tracer(8);
  tracer.record(1.0, obs::TraceKind::kDecision, 3, 2, 240.0);
  tracer.record(1.5, obs::TraceKind::kNsRefresh, 3, 2, 240.0);  // not a decision
  tracer.record(2.0, obs::TraceKind::kDecision, 4, 1, 120.0);
  EXPECT_EQ(tracer.decisions_csv(),
            "time,domain,server,ttl\n1.000,3,2,240.000\n2.000,4,1,120.000\n");
  EXPECT_EQ(tracer.total_recorded(), 3u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(DecisionLog, RingKeepsNewestEntries) {
  obs::EventTracer tracer(3);
  for (int i = 0; i < 5; ++i) {
    tracer.record(static_cast<double>(i), obs::TraceKind::kDecision, i, 0, 240.0);
  }
  EXPECT_EQ(tracer.total_recorded(), 5u);
  EXPECT_EQ(tracer.dropped(), 2u);
  // CSV is chronological: domains 2, 3, 4 survive.
  const std::string csv = tracer.decisions_csv();
  EXPECT_NE(csv.find("2.000,2,0"), std::string::npos);
  EXPECT_EQ(csv.find("1.000,1,0"), std::string::npos);
  EXPECT_LT(csv.find("2.000,2,0"), csv.find("4.000,4,0"));
}

TEST(DecisionLog, CsvFormat) {
  obs::EventTracer tracer(4);
  tracer.record(8.0, obs::TraceKind::kDecision, 1, 2, 43.2);
  EXPECT_EQ(tracer.decisions_csv(), "time,domain,server,ttl\n8.000,1,2,43.200\n");
}

// ------------------------------------ utilization trace (utilization_csv)

void record_tick(obs::EventTracer& tracer, double time, const std::vector<double>& util) {
  for (std::size_t s = 0; s < util.size(); ++s) {
    tracer.record(time, obs::TraceKind::kUtilization, static_cast<std::int32_t>(s), 0,
                  util[s]);
  }
}

TEST(TraceRecorder, RecordsSamplesWithMax) {
  obs::EventTracer tracer(16);
  record_tick(tracer, 8.0, {0.2, 0.7});
  tracer.record(9.0, obs::TraceKind::kDecision, 0, 1, 240.0);  // not a sample
  record_tick(tracer, 16.0, {0.9, 0.1});
  EXPECT_EQ(tracer.utilization_csv(),
            "time,s0,s1,max\n"
            "8.000,0.200000,0.700000,0.700000\n"
            "16.000,0.900000,0.100000,0.900000\n");
}

TEST(TraceRecorder, CsvHasHeaderAndRows) {
  obs::EventTracer tracer(4);
  record_tick(tracer, 8.0, {0.25, 0.5});
  const std::string csv = tracer.utilization_csv();
  EXPECT_NE(csv.find("time,s0,s1,max\n"), std::string::npos);
  EXPECT_NE(csv.find("8.000,0.250000,0.500000,0.500000\n"), std::string::npos);
}

TEST(TraceRecorder, EmptyTraceStillHasHeader) {
  obs::EventTracer tracer(4);
  EXPECT_EQ(tracer.utilization_csv(), "time,max\n");
  tracer.record(1.0, obs::TraceKind::kDecision, 0, 0, 240.0);
  EXPECT_EQ(tracer.utilization_csv(), "time,max\n");
}

TEST(TraceRecorder, RingSkipsPartlyEvictedTick) {
  // Three ticks of three servers into a 7-record ring: the 8 s tick keeps
  // only its s2 record, so it is skipped rather than written short.
  obs::EventTracer tracer(7);
  record_tick(tracer, 8.0, {0.1, 0.2, 0.3});
  record_tick(tracer, 16.0, {0.4, 0.5, 0.6});
  record_tick(tracer, 24.0, {0.7, 0.8, 0.9});
  EXPECT_EQ(tracer.dropped(), 2u);
  EXPECT_EQ(tracer.utilization_csv(),
            "time,s0,s1,s2,max\n"
            "16.000,0.400000,0.500000,0.600000,0.600000\n"
            "24.000,0.700000,0.800000,0.900000,0.900000\n");
  // Two more records evict the 8 s s2 and the 16 s s0: only 24 s is whole.
  tracer.record(32.0, obs::TraceKind::kUtilization, 0, 0, 1.0);
  tracer.record(32.0, obs::TraceKind::kUtilization, 1, 0, 0.5);
  EXPECT_EQ(tracer.utilization_csv(),
            "time,s0,s1,s2,max\n24.000,0.700000,0.800000,0.900000,0.900000\n");
}

// --------------------------------------------------------------- profiler

TEST(PhaseProfiler, AccumulatesInFirstAddOrder) {
  obs::PhaseProfiler profiler;
  profiler.add("setup", 1.0);
  profiler.add("run", 2.0);
  profiler.add("setup", 0.5);

  const auto& phases = profiler.phases();
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].name, "setup");
  EXPECT_DOUBLE_EQ(phases[0].seconds, 1.5);
  EXPECT_EQ(phases[0].count, 2u);
  EXPECT_EQ(phases[1].name, "run");
  EXPECT_DOUBLE_EQ(profiler.total_seconds(), 3.5);

  const std::string json = profiler.to_json();
  EXPECT_NE(json.find("\"name\":\"setup\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"total_seconds\":3.5"), std::string::npos) << json;
}

// ------------------------------------------------------------- end to end

experiment::SimulationConfig obs_config() {
  experiment::SimulationConfig config;
  config.cluster = web::table2_cluster(35);
  config.policy = "DRR2-TTL/S_K";
  config.total_clients = 120;
  config.num_domains = 8;
  config.oracle_weights = false;  // exercise the estimator-update records
  config.warmup_sec = 60.0;
  config.duration_sec = 600.0;
  config.seed = 424242;
  return config;
}

TEST(SiteObservability, MetricsMatchComponentCounters) {
  experiment::SimulationConfig config = obs_config();
  config.metrics_enabled = true;
  config.trace_enabled = true;
  config.trace_capacity = 1 << 16;

  experiment::Site site(config);
  const experiment::RunResult result = site.run();

  ASSERT_NE(result.metrics, nullptr);
  const obs::MetricsSnapshot& snap = *result.metrics;

  const auto* decisions = snap.find("scheduler.decisions");
  ASSERT_NE(decisions, nullptr);
  EXPECT_GT(decisions->value, 0.0);
  EXPECT_DOUBLE_EQ(decisions->value,
                   static_cast<double>(site.scheduler().decisions()));

  const auto* ns_hits = snap.find("ns.cache_hits");
  const auto* ns_queries = snap.find("ns.authoritative_queries");
  ASSERT_NE(ns_hits, nullptr);
  ASSERT_NE(ns_queries, nullptr);
  EXPECT_DOUBLE_EQ(ns_hits->value, static_cast<double>(result.ns_cache_hits));
  EXPECT_DOUBLE_EQ(ns_queries->value, static_cast<double>(result.authoritative_queries));

  // Per-server completion counters sum to the site-wide totals.
  double pages = 0.0;
  for (int s = 0; s < config.cluster.size(); ++s) {
    const auto* m = snap.find("server." + std::to_string(s) + ".pages_completed");
    ASSERT_NE(m, nullptr);
    pages += m->value;
  }
  EXPECT_GT(pages, 0.0);

  const auto* ttl_hist = snap.find("scheduler.ttl_sec");
  ASSERT_NE(ttl_hist, nullptr);
  EXPECT_EQ(ttl_hist->count, static_cast<std::uint64_t>(decisions->value));

  // Kernel health gauges filled at end of run.
  const auto* dispatched = snap.find("kernel.events_dispatched");
  ASSERT_NE(dispatched, nullptr);
  EXPECT_DOUBLE_EQ(dispatched->value, static_cast<double>(result.events_dispatched));
  const auto* peak = snap.find("kernel.peak_events");
  ASSERT_NE(peak, nullptr);
  EXPECT_GT(peak->value, 0.0);
}

TEST(SiteObservability, TracerCapturesDecisionTimeline) {
  experiment::SimulationConfig config = obs_config();
  config.trace_enabled = true;
  config.trace_capacity = 1 << 16;
  // Inject an outage so pause/resume records appear too.
  config.outages.push_back(experiment::ServerOutage{200.0, 100.0, 0});

  experiment::Site site(config);
  site.run();

  obs::EventTracer* tracer = site.event_tracer();
  ASSERT_NE(tracer, nullptr);
  EXPECT_GT(tracer->total_recorded(), 0u);

  bool saw_decision = false, saw_ns = false, saw_pause = false, saw_resume = false,
       saw_estimator = false;
  double last_time = -1.0;
  for (const obs::TraceRecord& r : tracer->records()) {
    EXPECT_GE(r.time, last_time);  // chronological
    last_time = r.time;
    switch (r.kind) {
      case obs::TraceKind::kDecision:
        saw_decision = true;
        EXPECT_GE(r.a, 0);
        EXPECT_LT(r.a, config.num_domains);
        EXPECT_GE(r.b, 0);
        EXPECT_LT(r.b, config.cluster.size());
        EXPECT_GT(r.value, 0.0);  // TTL
        break;
      case obs::TraceKind::kNsRefresh: saw_ns = true; break;
      case obs::TraceKind::kServerPause: saw_pause = true; break;
      case obs::TraceKind::kServerResume: saw_resume = true; break;
      case obs::TraceKind::kEstimatorUpdate: saw_estimator = true; break;
      default: break;
    }
  }
  EXPECT_TRUE(saw_decision);
  EXPECT_TRUE(saw_ns);
  EXPECT_TRUE(saw_pause);
  EXPECT_TRUE(saw_resume);
  EXPECT_TRUE(saw_estimator);

  // The exported timeline parses as one JSON object (spot checks).
  const std::string json = tracer->to_chrome_json();
  EXPECT_NE(json.find("\"name\":\"server_pause\""), std::string::npos);
}

TEST(TraceRecorder, AttachedToSiteRecordsEveryTick) {
  experiment::SimulationConfig config;
  config.policy = "RR";
  config.warmup_sec = 0.0;
  config.duration_sec = 800.0;  // 100 ticks at 8 s
  config.seed = 77;
  config.trace_enabled = true;
  experiment::Site site(config);
  site.run();
  const obs::EventTracer& tracer = *site.event_tracer();
  ASSERT_EQ(tracer.dropped(), 0u);

  std::vector<obs::TraceRecord> util;
  for (const obs::TraceRecord& r : tracer.records()) {
    if (r.kind == obs::TraceKind::kUtilization) util.push_back(r);
  }
  const std::size_t servers = 7;
  ASSERT_EQ(util.size(), 100u * servers);
  // One record per server per tick, in server order, on the 8-second grid.
  for (std::size_t i = 0; i < util.size(); ++i) {
    EXPECT_EQ(util[i].a, static_cast<std::int32_t>(i % servers));
    EXPECT_DOUBLE_EQ(util[i].time, 8.0 * static_cast<double>(i / servers + 1));
  }
  EXPECT_DOUBLE_EQ(util.front().time, 8.0);
  EXPECT_DOUBLE_EQ(util.back().time, 800.0);

  const std::string csv = tracer.utilization_csv();
  EXPECT_EQ(csv.rfind("time,s0,s1,s2,s3,s4,s5,s6,max\n", 0), 0u);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 101);
}

// The decision records of a traced DRR2-TTL/S_K Site run.
std::vector<obs::TraceRecord> traced_decisions(experiment::Site& site) {
  const obs::EventTracer& tracer = *site.event_tracer();
  EXPECT_EQ(tracer.dropped(), 0u);
  std::vector<obs::TraceRecord> decisions;
  for (const obs::TraceRecord& rec : tracer.records()) {
    if (rec.kind == obs::TraceKind::kDecision) decisions.push_back(rec);
  }
  return decisions;
}

experiment::SimulationConfig decision_config() {
  experiment::SimulationConfig config;
  config.policy = "DRR2-TTL/S_K";
  config.warmup_sec = 0.0;
  config.duration_sec = 1800.0;
  config.seed = 66;
  config.trace_enabled = true;
  return config;
}

TEST(DecisionLog, AttachedToSiteCapturesAllDecisions) {
  experiment::Site site(decision_config());
  const experiment::RunResult r = site.run();
  const std::vector<obs::TraceRecord> decisions = traced_decisions(site);
  EXPECT_EQ(decisions.size(), r.authoritative_queries);
  ASSERT_FALSE(decisions.empty());
  // Times are stamped and monotone.
  for (std::size_t i = 1; i < decisions.size(); ++i) {
    EXPECT_LE(decisions[i - 1].time, decisions[i].time);
  }
  // Hot domains re-resolve more often under TTL/K: domain 0 must appear
  // strictly more often than the coldest domain.
  int d0 = 0, d19 = 0;
  for (const obs::TraceRecord& rec : decisions) {
    d0 += (rec.a == 0);
    d19 += (rec.a == 19);
  }
  EXPECT_GT(d0, d19);
  // The CSV view has one row per decision.
  const std::string csv = site.event_tracer()->decisions_csv();
  EXPECT_EQ(static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n')),
            decisions.size() + 1);
}

TEST(DecisionLog, PerServerCounts) {
  experiment::Site site(decision_config());
  site.run();
  const std::vector<obs::TraceRecord> decisions = traced_decisions(site);
  ASSERT_FALSE(decisions.empty());
  // Per-server counts agree with the scheduler's own bookkeeping.
  std::vector<std::uint64_t> counts(site.scheduler().assignments().size(), 0);
  for (const obs::TraceRecord& rec : decisions) counts.at(static_cast<std::size_t>(rec.b))++;
  EXPECT_EQ(counts, site.scheduler().assignments());
}

TEST(SiteObservability, EnablingObservabilityDoesNotChangeResults) {
  // Same seed, observability off vs fully on: every simulation-visible
  // output must be bit-identical (wall-clock profile fields excluded).
  experiment::SimulationConfig off = obs_config();
  experiment::SimulationConfig on = obs_config();
  on.metrics_enabled = true;
  on.trace_enabled = true;

  experiment::Site site_off(off);
  const experiment::RunResult a = site_off.run();
  experiment::Site site_on(on);
  const experiment::RunResult b = site_on.run();

  EXPECT_EQ(a.total_pages, b.total_pages);
  EXPECT_EQ(a.total_hits, b.total_hits);
  EXPECT_EQ(a.authoritative_queries, b.authoritative_queries);
  EXPECT_EQ(a.ns_cache_hits, b.ns_cache_hits);
  EXPECT_EQ(a.alarm_signals, b.alarm_signals);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.mean_max_utilization, b.mean_max_utilization);  // bitwise
  EXPECT_EQ(a.aggregate_utilization, b.aggregate_utilization);
  EXPECT_EQ(a.mean_ttl, b.mean_ttl);
  EXPECT_EQ(a.mean_page_response_sec, b.mean_page_response_sec);
  EXPECT_EQ(a.metrics, nullptr);
  ASSERT_NE(b.metrics, nullptr);
}

TEST(SiteObservability, RunProfileIsFilled) {
  experiment::SimulationConfig config = obs_config();
  config.duration_sec = 120.0;
  experiment::Site site(config);
  const experiment::RunResult r = site.run();
  EXPECT_GT(r.profile.setup_sec, 0.0);
  EXPECT_GT(r.profile.measurement_sec, 0.0);
  EXPECT_GE(r.profile.warmup_sec, 0.0);
  EXPECT_GE(r.profile.collect_sec, 0.0);
  EXPECT_GT(r.profile.total(), 0.0);
}

TEST(SweepManifest, CarriesLabelsAndPhases) {
  experiment::SimulationConfig config = obs_config();
  config.duration_sec = 120.0;
  experiment::Sweep sweep;
  sweep.add(config, 2, "pointA");
  sweep.add_policy(config, "RR", 1);
  const experiment::SweepResult result = sweep.run();

  ASSERT_EQ(result.point_labels.size(), 2u);
  EXPECT_EQ(result.point_labels[0], "pointA");
  EXPECT_EQ(result.point_labels[1], "RR");

  const std::string manifest = result.manifest_json();
  EXPECT_NE(manifest.find("\"label\":\"pointA\""), std::string::npos) << manifest;
  EXPECT_NE(manifest.find("\"replications\":2"), std::string::npos) << manifest;
  EXPECT_NE(manifest.find("\"measurement_sec\":"), std::string::npos) << manifest;
  EXPECT_NE(manifest.find("\"jobs\":"), std::string::npos) << manifest;
}

TEST(RunnerJson, IncludesMetricsWhenEnabled) {
  experiment::SimulationConfig config = obs_config();
  config.duration_sec = 120.0;
  config.metrics_enabled = true;
  const experiment::ReplicatedResult rep = experiment::run_replications(config, 1);
  const std::string json = experiment::to_json(config, rep);
  EXPECT_NE(json.find("\"metrics\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"scheduler.decisions\""), std::string::npos) << json;

  // And absent when disabled. (The resolved-config block still carries the
  // `"metrics":false` knob; only the snapshot object must disappear.)
  experiment::SimulationConfig plain = obs_config();
  plain.duration_sec = 120.0;
  const experiment::ReplicatedResult rep2 = experiment::run_replications(plain, 1);
  EXPECT_EQ(experiment::to_json(plain, rep2).find("\"metrics\":{"), std::string::npos);
}

}  // namespace
}  // namespace adattl
