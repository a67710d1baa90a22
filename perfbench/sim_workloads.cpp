// The simulator workloads: paper_sweep (many small serial-Site runs in one
// closed Sweep) and scale_sharded (one large ShardedSite run).

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "experiment/param_registry.h"
#include "experiment/runner.h"
#include "experiment/scenario_file.h"
#include "experiment/sharded_site.h"
#include "experiment/site.h"
#include "report.h"
#include "stats.h"

namespace perfbench {

namespace {

using adattl::experiment::RunResult;
using adattl::experiment::SimulationConfig;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Seed of input `index` derived from the workload seed (splitmix64), so
/// every seed gives a different but reproducible set of runs.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) % 1'000'000'007ULL;
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Digest of every deterministic aggregate of a run: two runs of one
/// config and seed must agree on it bit for bit.
std::uint64_t digest(const RunResult& r) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::uint64_t v : {r.total_pages, r.total_hits, r.authoritative_queries, r.ns_cache_hits,
                          r.events_dispatched, r.alarm_signals, r.failed_requests, r.lost_pages,
                          r.pool_changes}) {
    h = fnv(h, v);
  }
  for (double d : {r.mean_max_utilization, r.mean_page_response_sec, r.mean_ttl,
                   r.aggregate_utilization, r.prob_below_098}) {
    h = fnv(h, std::bit_cast<std::uint64_t>(d));
  }
  for (double u : r.mean_server_util) h = fnv(h, std::bit_cast<std::uint64_t>(u));
  return h;
}

/// Laws every finished run obeys, checkable from its RunResult alone.
void check_result(const RunResult& r, const std::string& what, Report* rep, bool* ok) {
  const auto expect = [&](bool cond, const char* law) {
    if (!cond) {
      *ok = false;
      rep->fail(what + ": " + law);
    }
  };
  expect(r.total_pages > 0 && r.total_hits >= r.total_pages, "pages > 0 and hits >= pages");
  expect(r.failed_requests >= r.lost_pages, "failed requests include lost pages");
  const double attempts = static_cast<double>(r.total_pages + r.failed_requests);
  expect(std::abs(r.unavailability_fraction - r.failed_requests / attempts) < 1e-12,
         "unavailability = failed / attempts");
  expect(r.prob_below_090 <= r.prob_below_098 + 1e-12 && r.prob_below_098 <= 1.0,
         "max-utilization CDF is monotone");
  for (double u : r.mean_server_util) expect(u >= 0.0 && u <= 1.0 + 1e-9, "0 <= util <= 1");
  expect(r.authoritative_queries == 0 || r.mean_ttl > 0.0, "TTLs are positive");
}

/// Server-side page conservation, summed over (replica) clusters:
/// every attempt was served, lost, rejected, queued or is in flight, and
/// at most one page per client is in flight.
struct PageTally {
  std::uint64_t served = 0, lost = 0, rejected = 0, queued = 0;
  void add_cluster(adattl::web::Cluster& c) {
    for (int s = 0; s < c.size(); ++s) {
      const adattl::web::WebServer& sv = c.server(s);
      served += sv.pages_served();
      lost += sv.lost_pages();
      rejected += sv.rejected_pages();
      queued += sv.queue_length();
    }
  }
  bool conserves(const RunResult& r, int clients) const {
    const std::uint64_t attempts = r.total_pages + r.failed_requests;
    const std::uint64_t accounted = served + lost + queued + rejected;
    return accounted <= attempts && attempts - accounted <= static_cast<std::uint64_t>(clients) &&
           r.failed_requests == lost + rejected && r.lost_pages == lost;
  }
};

/// `n` domain ids drawn from `ids` with probability ∝ `weights` (the
/// domains' offered request rates).
std::vector<int> domain_mix(const std::vector<int>& ids, const std::vector<double>& weights,
                            std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::discrete_distribution<int> pick(weights.begin(), weights.end());
  std::vector<int> out(n);
  for (int& d : out) d = ids[static_cast<std::size_t>(pick(rng))];
  return out;
}

/// Mean cost of DnsScheduler::schedule on the workload's schedulers, each
/// fed its own request mix (core.decide_ns). The cost of a decision depends
/// on the scheduler's inputs, so there are several schedulers, each built
/// from another input draw. A pass runs for a fixed wall time on as many
/// threads as the workload has workers, each calling its own schedulers
/// round robin, and gives the mean ns per call over the threads; a run
/// reports the median over its passes.
class DecisionCost {
 public:
  struct Input {
    adattl::core::DnsScheduler* scheduler;
    std::vector<int> domains;
  };

  /// Calls `inputs` for `seconds` on min(`threads`, inputs) threads at
  /// once; thread t takes inputs t, t + threads, ...
  void pass(const std::vector<Input>& inputs, int threads, double seconds) {
    const std::size_t n = std::min(static_cast<std::size_t>(std::max(1, threads)), inputs.size());
    std::vector<double> ns_per_call(n);
    std::vector<std::size_t> sinks(n);
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < n; ++t) {
      pool.emplace_back([&, t] {
        std::size_t calls = 0, sink = 0;
        const Clock::time_point start = Clock::now();
        for (std::size_t round = 0; round % 4096 != 0 || seconds_since(start) < seconds; ++round) {
          for (std::size_t x = t; x < inputs.size(); x += n) {
            const Input& in = inputs[x];
            const int d = in.domains[round % in.domains.size()];
            sink += static_cast<std::size_t>(in.scheduler->schedule(d).server);
            ++calls;
          }
        }
        ns_per_call[t] = seconds_since(start) * 1e9 / static_cast<double>(calls);
        sinks[t] = sink;  // once, so the threads share no cache line while timed
      });
    }
    for (std::thread& th : pool) th.join();
    for (std::size_t sink : sinks) sink_ += sink;
    mean_ns_.push_back(std::accumulate(ns_per_call.begin(), ns_per_call.end(), 0.0) /
                       static_cast<double>(n));
  }

  /// Median over passes of the mean ns per call; fails the report when
  /// the calls produced nothing.
  double mean_ns(Report* rep) const {
    if (mean_ns_.empty() || sink_ == 0) rep->fail("decision timing produced nothing");
    return median(mean_ns_);
  }

 private:
  std::vector<double> mean_ns_;
  std::size_t sink_ = 0;
};

/// Per-layer metrics no simulator workload exercises: reported as 0.
void add_daemon_layers_absent(Report* rep) {
  for (const char* m : {"dnswire.handle_ns", "dnswire.key_ns", "dnswire.decode_ns",
                        "dnswire.encode_ns"}) {
    rep->add(m, 0.0, "ns", "not exercised");
  }
  rep->add("dnswire.ecs_key_ratio", 0.0, "ratio", "not exercised");
  rep->add("daemon.cpu_us_per_answer", 0.0, "us", "not exercised");
  rep->add("daemon.batch_fill", 0.0, "ratio", "not exercised");
  rep->add("daemon.shard_skew", 0.0, "ratio", "not exercised");
  rep->add("daemon.kernel_drops", 0.0, "count", "not exercised");
  rep->add("daemon.send_errors", 0.0, "count", "not exercised");
  rep->add("daemon.undecodable", 0.0, "count", "not exercised");
  rep->add("bench.gen_lag_p99_us", 0.0, "us", "not exercised");
}

double metric(const RunResult& r, const char* name) {
  if (!r.metrics) return 0.0;
  const auto* m = r.metrics->find(name);
  return m ? m->value : 0.0;
}

// ---------------------------------------------------------------------------
// paper_sweep
// ---------------------------------------------------------------------------

/// Index in make_sweep's order of the point rerun standalone.
constexpr std::size_t kTimedPoint = 4;
/// Wall time of the decision-cost pass after every traced batch
/// (paper_sweep) or run (scale_sharded).
constexpr double kDecidePassSeconds = 0.25;
/// Freshly built sites of the timed point whose schedulers paper_sweep times.
constexpr std::uint64_t kDecideSites = 8;

struct SweepPlan {
  adattl::experiment::Sweep sweep;
  std::vector<SimulationConfig> configs;  // per point
  std::vector<int> replications;          // per point
};

SweepPlan make_sweep(std::uint64_t seed, bool metrics) {
  SweepPlan plan;
  std::uint64_t index = 0;
  const auto add = [&](SimulationConfig c, int reps, const std::string& label) {
    c.seed = derive_seed(seed, index++);
    c.metrics_enabled = metrics;
    plan.sweep.add(c, reps, label);
    plan.configs.push_back(c);
    plan.replications.push_back(reps);
  };
  for (int het : {20, 50}) {
    for (const char* policy :
         {"RR", "RR2", "PRR2-TTL/K", "DRR-TTL/S_K", "DRR2-TTL/S_K", "DAL"}) {
      SimulationConfig c;
      c.cluster = adattl::web::table2_cluster(het);
      c.total_clients = 500;
      c.policy = policy;
      add(c, 2, std::string(policy) + "@het" + std::to_string(het));
    }
  }
  for (const char* file : {"scenarios/chaos_recovery.scenario", "scenarios/autoscale.scenario"}) {
    const auto res = adattl::experiment::ParamRegistry::instance().resolve_flags(
        adattl::experiment::load_scenario_file(file));
    add(res.options.config, std::max(1, res.options.replications), file);
  }
  return plan;
}

struct BatchStats {
  double wall = 0, cpu = 0, setup = 0, warmup = 0, measure = 0, collect = 0, loop = 0;
  double point_cpu = 0;
  double events = 0, pages = 0;
};

/// `cpu` is the process CPU time the batch took, all threads.
BatchStats tally(const adattl::experiment::SweepResult& res, double cpu) {
  BatchStats b;
  b.wall = res.wall_seconds;
  b.cpu = cpu;
  for (double c : res.point_cpu_seconds) b.point_cpu += c;
  for (const auto& point : res.points) {
    for (const RunResult& r : point.runs) {
      b.setup += r.profile.setup_sec;
      b.warmup += r.profile.warmup_sec;
      b.measure += r.profile.measurement_sec;
      b.collect += r.profile.collect_sec;
      b.events += static_cast<double>(r.events_dispatched);
      b.pages += static_cast<double>(r.total_pages);
    }
  }
  b.loop = b.warmup + b.measure;
  return b;
}

}  // namespace

Report run_paper_sweep(const Args& args) {
  Report rep;
  const int jobs = std::min(4, available_cpus());
  adattl::experiment::ParallelExecutor executor(jobs);
  SweepPlan plain = make_sweep(args.seed, false);
  SweepPlan traced = make_sweep(args.seed, true);

  // One point (DRR2-TTL/S_K on the 20% site) also runs through a standalone
  // Site: its digest must equal the sweep's for the same seed, and the live
  // object graph must conserve pages and decisions.
  adattl::experiment::Site site(plain.configs[kTimedPoint]);
  const RunResult standalone = site.run();
  ++rep.attempted;
  bool standalone_ok = true;
  PageTally pages;
  pages.add_cluster(site.cluster());
  if (!pages.conserves(standalone, site.config().total_clients)) {
    standalone_ok = false;
    rep.fail("page conservation (served + lost + rejected + queued + in flight)");
  }
  std::uint64_t assigned = 0;
  for (std::uint64_t a : site.scheduler().assignments()) assigned += a;
  if (site.scheduler().decisions() != standalone.authoritative_queries ||
      assigned != standalone.authoritative_queries) {
    standalone_ok = false;
    rep.fail("decision conservation (decisions = assignments = NS queries)");
  }
  // A traced run times decisions on freshly built sites of the same point,
  // one per input draw, each fed requests drawn by its domains' offered
  // rates.
  std::vector<std::unique_ptr<adattl::experiment::Site>> timed;
  std::vector<DecisionCost::Input> decide_inputs;
  for (std::uint64_t k = 0; args.trace && k < kDecideSites; ++k) {
    SimulationConfig c = plain.configs[kTimedPoint];
    c.seed = derive_seed(args.seed, 1000 + k);
    timed.push_back(std::make_unique<adattl::experiment::Site>(c));
    const adattl::workload::DomainSet& ds = timed.back()->domain_set();
    std::vector<int> ids(static_cast<std::size_t>(ds.num_domains()));
    std::iota(ids.begin(), ids.end(), 0);
    decide_inputs.push_back(
        {&timed.back()->scheduler(), domain_mix(ids, ds.true_weights(), 8'192, c.seed)});
  }
  DecisionCost decide;

  std::vector<std::uint64_t> reference;  // digests of the first batch
  std::vector<BatchStats> batches;       // untraced (or traced, when tracing)
  double untraced_wall = 0.0;
  // Peak RSS after the first measured batch: later repeats only add
  // allocator churn, and how many fit in --seconds varies.
  double peak_rss = 0.0;
  adattl::experiment::SweepResult last;
  const Clock::time_point start = Clock::now();
  // A traced invocation first runs one untraced batch for the overhead ratio.
  for (int b = 0; batches.size() < 2 || seconds_since(start) < args.seconds; ++b) {
    const bool traced_batch = args.trace && b > 0;
    const double cpu0 = process_cpu_s();
    adattl::experiment::SweepResult res = (traced_batch ? traced : plain).sweep.run(executor);
    const double cpu = process_cpu_s() - cpu0;
    std::size_t k = 0;
    for (std::size_t p = 0; p < res.points.size(); ++p) {
      for (const RunResult& r : res.points[p].runs) {
        bool ok = true;
        const std::string what = res.point_labels[p] + " seed " + std::to_string(r.seed);
        check_result(r, what, &rep, &ok);
        if (traced_batch) {
          // Cross-layer conservation from the obs registry.
          const double decisions = metric(r, "scheduler.decisions");
          if (decisions != static_cast<double>(r.authoritative_queries) ||
              metric(r, "ns.authoritative_queries") != decisions ||
              metric(r, "ns.cache_hits") != static_cast<double>(r.ns_cache_hits) ||
              metric(r, "kernel.events_dispatched") != static_cast<double>(r.events_dispatched)) {
            ok = false;
            rep.fail(what + ": registry counters disagree with the RunResult");
          }
        }
        const std::uint64_t d = digest(r);
        if (reference.size() <= k) {
          reference.push_back(d);
        } else if (reference[k] != d) {
          ok = false;
          rep.fail(what + ": RunResult digest differs from the first repeat");
        }
        ++k;
        ++rep.attempted;
        if (!ok) ++rep.failed;
      }
    }
    if (args.trace && b == 0) {
      untraced_wall = res.wall_seconds;
      continue;
    }
    batches.push_back(tally(res, cpu));
    if (batches.size() == 1) peak_rss = peak_rss_mb();
    last = std::move(res);
    if (args.trace) decide.pass(decide_inputs, jobs, kDecidePassSeconds);
  }

  std::size_t first_run = 0;
  for (std::size_t p = 0; p < kTimedPoint; ++p) {
    first_run += static_cast<std::size_t>(plain.replications[p]);
  }
  if (digest(standalone) != reference[first_run]) {
    standalone_ok = false;
    rep.fail("standalone Site digest differs from the Sweep's");
  }
  if (!standalone_ok) ++rep.failed;

  const auto med = [&](auto field) {
    std::vector<double> v;
    for (const BatchStats& b : batches) v.push_back(field(b));
    return median(v);
  };
  const std::string n = "n=" + std::to_string(batches.size()) + " batches of " +
                        std::to_string(reference.size()) + " runs, " + std::to_string(jobs) +
                        " jobs";
  if (!args.trace) {
    rep.add("setup_s", med([](const BatchStats& b) { return b.setup; }), "s",
            n + ", sum of RunProfile.setup_sec");
    rep.add("events_per_s", med([](const BatchStats& b) { return b.events / b.cpu; }), "1/s",
            n + ", events per batch CPU second");
    const double runs = static_cast<double>(reference.size());
    rep.add("p50_us", med([&](const BatchStats& b) { return b.cpu / runs * 1e6; }), "us",
            n + ", CPU time of one run: the batch's CPU over its runs");
    rep.add("max_qps", med([](const BatchStats& b) { return b.pages / b.cpu; }), "1/s",
            n + ", simulated pages per batch CPU second");
    rep.add("peak_rss_mb", peak_rss, "MB", "after the first batch");
    rep.add_info("wall_s", med([](const BatchStats& b) { return b.wall; }), "s",
                 n + ", Sweep wall");
    rep.add_info("cpu_s", med([](const BatchStats& b) { return b.cpu; }), "s",
                 n + ", process CPU (user + system, all threads) per batch");
    return rep;
  }

  const BatchStats& lb = batches.back();
  double peak_pending = 0, cancels = 0, auth = 0, hits = 0, decisions = 0, ttl_sum = 0,
         ttl_count = 0, alarms = 0, p098 = 0, util = 0, fault_events = 0, pool = 0, hitsum = 0;
  double runs = 0;
  for (const auto& pt : last.points) {
    for (const RunResult& run : pt.runs) {
      peak_pending = std::max(peak_pending, metric(run, "kernel.peak_events"));
      cancels += metric(run, "kernel.cancels");
      auth += metric(run, "ns.authoritative_queries");
      hits += metric(run, "ns.cache_hits");
      decisions += metric(run, "scheduler.decisions");
      if (const auto* ttl = run.metrics->find("scheduler.ttl_sec")) {
        ttl_sum += ttl->sum;
        ttl_count += static_cast<double>(ttl->count);
      }
      alarms += static_cast<double>(run.alarm_signals);
      p098 += run.prob_below_098;
      util += run.mean_max_utilization;
      fault_events += metric(run, "fault.events");
      pool += static_cast<double>(run.pool_changes);
      hitsum += static_cast<double>(run.total_hits);
      runs += 1;
    }
  }
  const std::string one = "last traced batch";
  rep.add("sim.events", lb.events, "count", one);
  rep.add("sim.peak_pending", peak_pending, "count", "max over runs");
  rep.add("sim.cancels", cancels, "count", one);
  rep.add("sim.warmup_s", med([](const BatchStats& b) { return b.warmup; }), "s", n);
  rep.add("sim.measure_s", med([](const BatchStats& b) { return b.measure; }), "s", n);
  rep.add("sim.collect_s", med([](const BatchStats& b) { return b.collect; }), "s", n);
  rep.add("workload.pages", lb.pages, "count", one);
  rep.add("workload.hits", hitsum, "count", one);
  rep.add("dnscache.auth_queries", auth, "count", one);
  rep.add("dnscache.ns_hit_ratio", hits / (hits + auth), "ratio", one);
  rep.add("core.decisions", decisions, "count", one);
  rep.add("core.mean_ttl_s", ttl_sum / ttl_count, "s", one);
  rep.add("core.alarm_signals", alarms, "count", one);
  rep.add("core.decide_ns", decide.mean_ns(&rep), "ns", "mean per call, median over passes");
  rep.add("web.prob_below_098", p098 / runs, "ratio", "mean over runs");
  rep.add("web.mean_max_util", util / runs, "ratio", "mean over runs");
  rep.add("fault.events", fault_events, "count", one);
  rep.add("core.pool_changes", pool, "count", one);
  rep.add("experiment.setup_share",
          med([](const BatchStats& b) { return b.setup / (b.setup + b.loop + b.collect); }),
          "ratio", n);
  rep.add("experiment.sweep_efficiency",
          med([&](const BatchStats& b) { return b.point_cpu / (b.wall * jobs); }), "ratio", n);
  rep.add("experiment.shard_event_skew", 1.0, "ratio", "unsharded");
  rep.add("experiment.shard_client_skew", 1.0, "ratio", "unsharded");
  add_daemon_layers_absent(&rep);
  rep.add("bench.trace_overhead",
          med([](const BatchStats& b) { return b.wall; }) / untraced_wall, "ratio",
          "traced / untraced Sweep wall");
  return rep;
}

// ---------------------------------------------------------------------------
// scale_sharded
// ---------------------------------------------------------------------------

Report run_scale_sharded(const Args& args) {
  Report rep;
  const int jobs = std::min(4, available_cpus());
  adattl::experiment::ParallelExecutor executor(jobs);
  SimulationConfig c;
  c.cluster = adattl::web::table2_cluster(35);
  c.policy = "DRR2-TTL/S_K";
  c.scale = 1000.0;  // 500k clients, site capacity scaled alike
  c.shard_domains = true;
  c.shard_count = 4;
  c.warmup_sec = 40.0;
  c.duration_sec = 160.0;
  c.seed = derive_seed(args.seed, 0);

  std::vector<double> setup, wall, run_cpu, ev_rate, page_rate;
  DecisionCost decide;
  double peak_rss = 0.0;  // after the first run, as in paper_sweep
  std::uint64_t reference = 0;
  double untraced_wall = 0.0;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < 2 || seconds_since(start) < args.seconds; ++i) {
    adattl::experiment::ShardedSite site(c);
    const double cpu0 = process_cpu_s();
    const RunResult r = site.run(executor);
    const double cpu = process_cpu_s() - cpu0;
    const Clock::time_point trace_start = Clock::now();
    ++rep.attempted;
    bool ok = true;
    check_result(r, "sharded seed " + std::to_string(c.seed), &rep, &ok);
    if (i == 0) {
      reference = digest(r);
    } else if (digest(r) != reference) {
      ok = false;
      rep.fail("sharded RunResult digest differs from the first repeat");
    }
    // Per-shard sums must equal the aggregate, and the partition must
    // cover every domain exactly once.
    PageTally pages;
    std::uint64_t decisions = 0, assigned = 0, ns_auth = 0, ns_hits = 0, events = 0, served = 0;
    std::vector<int> owner(static_cast<std::size_t>(site.config().num_domains), 0);
    std::vector<double> shard_events, shard_clients;
    double peak_pending = 0, cancels = 0, fault_events = 0;
    for (int s = 0; s < site.shard_count(); ++s) {
      auto& sh = site.shard(s);
      for (int d : sh.domains) ++owner.at(static_cast<std::size_t>(d));
      decisions += sh.bundle.scheduler->decisions();
      for (std::uint64_t a : sh.bundle.scheduler->assignments()) assigned += a;
      for (const auto& ns : sh.name_servers) {
        ns_auth += ns->authoritative_queries();
        ns_hits += ns->cache_hits();
      }
      for (int k = 0; k < sh.cluster->size(); ++k) served += sh.cluster->server(k).hits_served();
      pages.add_cluster(*sh.cluster);
      events += sh.sim->events_dispatched();
      shard_events.push_back(static_cast<double>(sh.sim->events_dispatched()));
      shard_clients.push_back(static_cast<double>(sh.clients->size()));
      peak_pending = std::max(peak_pending, static_cast<double>(sh.sim->peak_pending()));
      cancels += static_cast<double>(sh.sim->cancels());
      fault_events += static_cast<double>(sh.fault->events_fired());
    }
    if (std::any_of(owner.begin(), owner.end(), [](int n) { return n != 1; }) ||
        decisions != r.authoritative_queries || assigned != decisions ||
        ns_auth != r.authoritative_queries || ns_hits != r.ns_cache_hits ||
        events != r.events_dispatched || served != r.total_hits) {
      ok = false;
      rep.fail("per-shard sums differ from the aggregate");
    }
    if (!pages.conserves(r, site.config().scaled().total_clients)) {
      ok = false;
      rep.fail("page conservation across shards");
    }
    if (!ok) ++rep.failed;

    const auto& p = r.profile;
    const double work = p.warmup_sec + p.measurement_sec + p.collect_sec;
    setup.push_back(p.setup_sec);
    if (i == 0) peak_rss = peak_rss_mb();
    wall.push_back(work);
    run_cpu.push_back(cpu);
    ev_rate.push_back(static_cast<double>(r.events_dispatched) / cpu);
    page_rate.push_back(static_cast<double>(r.total_pages) / cpu);

    if (i == 0) untraced_wall = work;
    // End-to-end numbers come from untraced runs: a traced invocation runs
    // untraced first, then reads every layer after each later run and
    // charges that reading to the traced wall time. Decisions are timed
    // on every shard's scheduler after each traced run.
    if (!args.trace || i == 0) continue;
    const std::vector<double> all = site.domain_set().true_weights();
    std::vector<DecisionCost::Input> inputs;
    for (int s = 0; s < site.shard_count(); ++s) {
      const std::vector<int>& ids = site.shard(s).domains;
      std::vector<double> weights;
      for (int d : ids) weights.push_back(all[static_cast<std::size_t>(d)]);
      inputs.push_back({site.shard(s).bundle.scheduler.get(),
                        domain_mix(ids, weights, 20'000, derive_seed(args.seed, 100 + s))});
    }
    decide.pass(inputs, jobs, kDecidePassSeconds);
    const double mean = [](const std::vector<double>& v) {
      return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
    }(shard_events);
    const double mean_clients = std::accumulate(shard_clients.begin(), shard_clients.end(), 0.0) /
                                static_cast<double>(shard_clients.size());
    rep.metrics.clear();
    rep.add("sim.events", static_cast<double>(r.events_dispatched), "count");
    rep.add("sim.peak_pending", peak_pending, "count", "max over shards");
    rep.add("sim.cancels", cancels, "count");
    rep.add("sim.warmup_s", p.warmup_sec, "s");
    rep.add("sim.measure_s", p.measurement_sec, "s");
    rep.add("sim.collect_s", p.collect_sec, "s");
    rep.add("workload.pages", static_cast<double>(r.total_pages), "count");
    rep.add("workload.hits", static_cast<double>(r.total_hits), "count");
    rep.add("dnscache.auth_queries", static_cast<double>(r.authoritative_queries), "count");
    rep.add("dnscache.ns_hit_ratio",
            static_cast<double>(r.ns_cache_hits) /
                static_cast<double>(r.ns_cache_hits + r.authoritative_queries),
            "ratio");
    rep.add("core.decisions", static_cast<double>(decisions), "count");
    rep.add("core.mean_ttl_s", r.mean_ttl, "s");
    rep.add("core.alarm_signals", static_cast<double>(r.alarm_signals), "count");
    rep.add("core.decide_ns", decide.mean_ns(&rep), "ns", "all shards, mean per call");
    rep.add("web.prob_below_098", r.prob_below_098, "ratio");
    rep.add("web.mean_max_util", r.mean_max_utilization, "ratio");
    rep.add("fault.events", fault_events, "count");
    rep.add("core.pool_changes", static_cast<double>(r.pool_changes), "count");
    rep.add("experiment.setup_share", p.setup_sec / (p.setup_sec + work), "ratio");
    rep.add("experiment.sweep_efficiency", cpu / (work * jobs), "ratio",
            "process CPU / (wall x jobs)");
    rep.add("experiment.shard_event_skew",
            *std::max_element(shard_events.begin(), shard_events.end()) / mean, "ratio");
    rep.add("experiment.shard_client_skew",
            *std::max_element(shard_clients.begin(), shard_clients.end()) / mean_clients,
            "ratio");
    add_daemon_layers_absent(&rep);
    rep.add("bench.trace_overhead", (work + seconds_since(trace_start)) / untraced_wall,
            "ratio", "traced / untraced run wall");
  }
  if (args.trace) return rep;
  // Set-up alone, a few more times, so setup_s is a median of several.
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point t0 = Clock::now();
    adattl::experiment::ShardedSite extra(c);
    setup.push_back(seconds_since(t0));
  }

  const std::string n = "n=" + std::to_string(wall.size()) + " runs of " +
                        std::to_string(c.scaled().total_clients) + " clients, 4 shards, " +
                        std::to_string(jobs) + " jobs";
  rep.add("setup_s", median(setup), "s",
          n + ", RunProfile.setup_sec and " + std::to_string(setup.size() - wall.size()) +
              " more constructions");
  rep.add("events_per_s", median(ev_rate), "1/s", n + ", events per run CPU second");
  rep.add("p50_us", median(run_cpu) * 1e6, "us", n + ", CPU time of one run");
  rep.add("max_qps", median(page_rate), "1/s", n + ", simulated pages per run CPU second");
  rep.add("peak_rss_mb", peak_rss, "MB", "after the first run");
  rep.add_info("wall_s", median(wall), "s", n + ", warm-up + measured + collect");
  rep.add_info("cpu_s", median(run_cpu), "s",
               n + ", process CPU (user + system, all threads) per ShardedSite::run");
  return rep;
}

}  // namespace perfbench
