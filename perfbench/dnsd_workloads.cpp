// The daemon workloads: a live 2-shard UdpDaemon on loopback driven by the
// bench's open-loop generator, with plain A queries (dnsd_plain) or an
// EDNS0 Client-Subnet, half-AAAA mix (dnsd_ecs_mix).
#include <dirent.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "dnswire/daemon.h"
#include "dnswire/ecs.h"
#include "dnswire/message.h"
#include "loadgen.h"
#include "obs/metrics.h"
#include "report.h"
#include "sim/random.h"
#include "stats.h"
#include "web/cluster.h"

namespace perfbench {

namespace {

using adattl::dnswire::ShardStatsSnapshot;

constexpr int kShards = 2;
constexpr int kDaemonBatch = 32;
constexpr double kReferenceQps = 20'000.0;
constexpr std::size_t kTemplates = 65'536;
constexpr int kSubnets = 4'096;
constexpr int kSetupRepeats = 200;
/// Each round's reference phase lasts kReferenceSeconds; its latency is
/// read window by window (window_tail in stats.h), kWindowQueries queries
/// (50 ms) a window, so every window's p99 has ten samples beyond it.
constexpr double kReferenceSeconds = 1.0;
constexpr std::size_t kWindowQueries = 1000;
/// A rung's pass/fail is read over the quietest half of its windows
/// (quiet_tail in stats.h), each 12.5 ms.
constexpr double kRungSeconds = 0.25;
constexpr int kRungWindows = 20;
constexpr double kQuietShare = 0.5;
/// Offered-rate ladder: 100k × 1.04^i queries per second, searched in
/// strides of 5 rungs (×1.22), then rung by rung.
constexpr double kLadderBase = 100'000.0;
constexpr double kLadderStep = 1.04;
constexpr int kLadderRungs = 60;
constexpr int kCoarseStride = 5;
/// Rounds start until kRoundsShare × --seconds has passed (at least
/// kMinRounds). While fewer than kMinRounds were quiet, they go on until
/// kRoundsCapShare × --seconds.
constexpr std::size_t kMinRounds = 3;
constexpr double kRoundsShare = 0.8;
constexpr double kRoundsCapShare = 1.5;
constexpr double kQuietSteal = 0.01;
/// The p99 limit sits above the few-ms scheduling stalls of a shared
/// 4-CPU host and below the tens of ms a saturated daemon queues for. A
/// failing rung is run once more before it counts as failed.
constexpr LadderLimits kLimits{10'000.0, 0.001, 5'000.0};

adattl::dnswire::DaemonConfig daemon_config(std::uint64_t seed) {
  adattl::dnswire::DaemonConfig cfg;
  cfg.site_name = "www.site.org";
  cfg.capacities = adattl::web::table2_cluster(35).absolute_capacities();
  for (std::size_t i = 0; i < cfg.capacities.size(); ++i) {
    cfg.server_ipv4.push_back(0x0a000001u + static_cast<std::uint32_t>(i));  // 10.0.0.1..
  }
  cfg.policy = "DRR2-TTL/S_K";
  cfg.seed = seed;
  cfg.port = 0;
  cfg.shards = kShards;
  cfg.batch = kDaemonBatch;
  return cfg;
}

/// The workload's query stream, generated from the seed. Plain: A queries
/// without EDNS, keyed by the daemon's source-address hash. ECS mix: each
/// query carries a /24 Client-Subnet drawn Zipf-like from kSubnets
/// distinct prefixes, and half are AAAA.
std::vector<QueryTemplate> make_queries(const std::vector<std::uint8_t>& qname,
                                        std::uint64_t seed, bool ecs_mix) {
  std::mt19937_64 rng(seed);
  std::vector<QueryTemplate> out(kTemplates);
  if (!ecs_mix) {
    for (QueryTemplate& q : out) {
      q.qtype = 1;
      q.wire = build_query(qname, 1);
    }
    return out;
  }
  std::set<std::uint32_t> seen;
  std::vector<std::uint32_t> prefixes;
  while (prefixes.size() < static_cast<std::size_t>(kSubnets)) {
    const std::uint32_t p = static_cast<std::uint32_t>(rng() & 0xffffff00u) | 0x01000000u;
    if (seen.insert(p).second) prefixes.push_back(p);
  }
  const std::vector<double> zipf = adattl::sim::ZipfDistribution(kSubnets, 1.0).probabilities();
  std::discrete_distribution<int> pick(zipf.begin(), zipf.end());
  for (QueryTemplate& q : out) {
    q.qtype = (rng() & 1) ? 28 : 1;
    q.wire = build_query(qname, q.qtype, prefixes[static_cast<std::size_t>(pick(rng))]);
  }
  return out;
}

/// Mean ns per call of `fn(i)` over i in [0, n), median of three passes.
template <typename Fn>
double mean_ns(std::size_t n, Fn&& fn) {
  std::vector<double> passes;
  for (int pass = 0; pass < 3; ++pass) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) fn(i);
    passes.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(n));
  }
  return median(passes);
}

/// Counts a phase's failures into the report. Ladder phases overload the
/// daemon on purpose, so only their wrong answers count, not their losses.
void tally(const PhaseResult& p, bool overload_probe, Report* rep, const char* phase) {
  rep->attempted += p.sent;
  const std::uint64_t wrong = p.refused + p.mismatched + p.invalid;
  const std::uint64_t failed = overload_probe ? wrong : wrong + p.unanswered + p.unexpected;
  rep->failed += failed;
  if (wrong) rep->fail(std::string(phase) + ": refused, mismatched or invalid answers");
  if (failed > wrong) rep->fail(std::string(phase) + ": unanswered queries below the knee");
}

/// Reference phases, concatenated in due order.
struct Reference {
  std::vector<std::uint32_t> latency_ns, lag_ns;
  std::uint64_t answered = 0;
  double ttl_sum = 0.0;
  double span_s = 0.0;  ///< summed over phases
  double daemon_cpu = 0.0;
  int phases = 0;

  void add(const Reference& o) {
    latency_ns.insert(latency_ns.end(), o.latency_ns.begin(), o.latency_ns.end());
    lag_ns.insert(lag_ns.end(), o.lag_ns.begin(), o.lag_ns.end());
    answered += o.answered;
    ttl_sum += o.ttl_sum;
    span_s += o.span_s;
    daemon_cpu += o.daemon_cpu;
    phases += o.phases;
  }
};

/// One round: a reference phase, a ladder search, and how much CPU time
/// the hypervisor stole meanwhile.
struct Round {
  Reference ref;
  std::vector<RungOutcome> rungs;
  int best_rung = -1;      ///< highest passing rung
  double best_rate = 0.0;  ///< max_qps of the round's rungs
  double pass_answers = 0.0;
  double pass_cpu = 0.0;  ///< daemon CPU seconds on the passing rungs
  double steal = 0.0;
};

/// Cumulative CPU time of the whole machine from /proc/stat, in ticks.
struct CpuTimes {
  double steal = 0.0;
  double total = 0.0;
};

CpuTimes read_cpu_times() {
  CpuTimes t;
  std::ifstream f("/proc/stat");
  std::string label;
  f >> label;  // "cpu": user nice system idle iowait irq softirq steal ...
  for (int i = 0; i < 8 && f; ++i) {
    double v = 0.0;
    f >> v;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

/// Share of the machine's CPU time stolen by the hypervisor between two
/// readings (0 where the kernel reports no steal).
double steal_share(const CpuTimes& a, const CpuTimes& b) {
  return b.total > a.total ? (b.steal - a.steal) / (b.total - a.total) : 0.0;
}

RungOutcome outcome(const PhaseResult& p) {
  const QuietTail t = quiet_tail(p.latency_ns, p.lag_ns, kNoAnswer, kRungWindows, kQuietShare);
  RungOutcome r;
  r.offered_qps = p.offered_qps;
  r.answer_rate = p.answer_rate();
  r.loss = t.loss;
  r.p99_us = t.p99_us;
  r.lag_p99_us = t.lag_p99_us;
  return r;
}

/// Pins every thread of this process but the caller to its own allowed CPU,
/// from the first up. Called once the daemon has started, these are its
/// shard threads; the generator pins its threads from the last CPU down.
void pin_other_threads_from_first_cpu() {
  const pid_t self = static_cast<pid_t>(syscall(SYS_gettid));
  const std::vector<int> cpus = allowed_cpus();
  DIR* dir = opendir("/proc/self/task");
  if (!dir) return;
  std::size_t next = 0;
  while (dirent* e = readdir(dir)) {
    const pid_t tid = static_cast<pid_t>(std::atoi(e->d_name));
    if (tid <= 0 || tid == self) continue;
    pin_thread(tid, cpus[next++ % cpus.size()]);
  }
  closedir(dir);
}

}  // namespace

Report run_dnsd(const Args& args, bool ecs_mix) {
  Report rep;
  const adattl::dnswire::DaemonConfig cfg = daemon_config(args.seed);
  ReplyRules rules;
  rules.qname_wire = name_wire(cfg.site_name);
  rules.ipv4 = cfg.server_ipv4;
  const std::vector<QueryTemplate> queries = make_queries(rules.qname_wire, args.seed, ecs_mix);

  // ---- set-up: construct + bind + start until the first valid answer ----
  std::vector<double> setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::int64_t t0 = now_ns();
    adattl::dnswire::UdpDaemon d(cfg);
    d.start();
    const int fd = open_client_socket(d.port());
    const bool ok = probe(fd, queries[0], rules, 2000);
    setup.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    ::close(fd);
    d.stop();
    ++rep.attempted;
    if (!ok) {
      ++rep.failed;
      rep.fail("set-up probe got no valid answer");
    }
  }

  adattl::dnswire::UdpDaemon daemon(cfg);
  daemon.start();
  pin_other_threads_from_first_cpu();
  // Keep source sockets whose flow hash lands on each shard, so every
  // shard gets the same share of the load (no more sockets than CPUs).
  const std::size_t per_shard =
      static_cast<std::size_t>(std::max(1, std::min(available_cpus(), 4) / kShards));
  std::vector<std::vector<int>> by_shard(kShards);
  for (int tries = 0; tries < 256; ++tries) {
    bool full = true;
    for (const auto& v : by_shard) full = full && v.size() >= per_shard;
    if (full) break;
    const int fd = open_client_socket(daemon.port());
    std::vector<std::uint64_t> before;
    for (int s = 0; s < kShards; ++s) before.push_back(daemon.shard_stats(s).received);
    if (!probe(fd, queries[0], rules, 2000)) {
      ::close(fd);
      throw std::runtime_error("probe of a source socket got no valid answer");
    }
    int shard = 0;
    for (int s = 0; s < kShards; ++s) {
      if (daemon.shard_stats(s).received != before[static_cast<std::size_t>(s)]) shard = s;
    }
    if (by_shard[static_cast<std::size_t>(shard)].size() < per_shard) {
      by_shard[static_cast<std::size_t>(shard)].push_back(fd);
    } else {
      ::close(fd);
    }
  }
  std::vector<int> fds;  // interleaved so each generator thread feeds every shard
  for (std::size_t i = 0; i < per_shard; ++i) {
    for (auto& v : by_shard) {
      if (i >= v.size()) throw std::runtime_error("could not reach every shard");
      fds.push_back(v[i]);
    }
  }
  LoadGen gen(fds, queries, rules);

  // ---- rounds, each a reference phase and a ladder search ----
  // Rounds seconds apart give a host stall several chances to miss one,
  // and every metric is a median over rounds or windows. A round counts as
  // quiet when the hypervisor stole less than kQuietSteal of the machine's
  // CPU time during it; the metrics come from the quiet rounds, or from the
  // kMinRounds least-stolen rounds when fewer were quiet.
  tally(gen.run_phase(kReferenceQps, 0.5, 1), false, &rep, "warm-up");
  const auto reference_phase = [&](Reference* into) {
    const double cpu0 = process_cpu_s();
    const PhaseResult p = gen.run_phase(kReferenceQps, kReferenceSeconds, 1);
    into->daemon_cpu += process_cpu_s() - cpu0 - p.gen_cpu_s;
    into->latency_ns.insert(into->latency_ns.end(), p.latency_ns.begin(), p.latency_ns.end());
    into->lag_ns.insert(into->lag_ns.end(), p.lag_ns.begin(), p.lag_ns.end());
    into->answered += p.answered;
    into->ttl_sum += p.ttl_sum;
    into->span_s += p.span_s;
    into->phases += 1;
    tally(p, false, &rep, "reference");
  };
  std::vector<Round> rounds;
  const auto run_rung = [&](int i) {
    const double qps = kLadderBase * std::pow(kLadderStep, i);
    const double cpu0 = process_cpu_s();
    const PhaseResult p = gen.run_phase(qps, kRungSeconds, 2);
    const double daemon_cpu = process_cpu_s() - cpu0 - p.gen_cpu_s;
    tally(p, true, &rep, "ladder");
    Round& round = rounds.back();
    round.rungs.push_back(outcome(p));
    const RungOutcome& r = round.rungs.back();
    const bool pass = rung_passes(r, kLimits);
    std::fprintf(stderr,
                 "perfbench: rung %.0f/s answered %.0f/s p99 %.1f us loss %.5f lag %.1f us %s\n",
                 r.offered_qps, r.answer_rate, r.p99_us, r.loss, r.lag_p99_us,
                 pass ? "pass" : "fail");
    if (pass) {
      round.pass_answers += static_cast<double>(p.answered);
      round.pass_cpu += daemon_cpu;
      round.best_rung = std::max(round.best_rung, i);
    }
    return pass;
  };
  const auto rung_served = [&](int i) { return run_rung(i) || run_rung(i); };
  // Strides of kCoarseStride rungs from `start` until one fails, then rung
  // by rung above the last passing stride. Returns the highest passing
  // rung, or -1.
  const auto search = [&](int start) {
    int last_pass = -1;
    int i = start;
    while (i < kLadderRungs && rung_served(i)) {
      last_pass = i;
      i += kCoarseStride;
    }
    for (int j = last_pass + 1; last_pass >= 0 && j < std::min(i, kLadderRungs); ++j) {
      if (!rung_served(j)) break;
      last_pass = j;
    }
    return last_pass;
  };
  const ShardStatsSnapshot before_ladder = daemon.totals();
  const std::int64_t rounds_start = now_ns();
  const auto elapsed = [&] { return static_cast<double>(now_ns() - rounds_start) * 1e-9; };
  std::vector<double> best_rungs;  // per round so far
  std::size_t quiet = 0;
  while (rounds.size() < kMinRounds || elapsed() < kRoundsShare * args.seconds ||
         (quiet < kMinRounds && elapsed() < kRoundsCapShare * args.seconds)) {
    const CpuTimes before = read_cpu_times();
    rounds.emplace_back();
    reference_phase(&rounds.back().ref);
    // Later rounds start two strides below the median best rung so far, and
    // from the bottom when that start already fails.
    const int start = best_rungs.empty()
                          ? 0
                          : std::max(0, static_cast<int>(median(best_rungs)) - 2 * kCoarseStride);
    if (search(start) < 0 && start > 0) search(0);
    rounds.back().best_rate = max_qps(rounds.back().rungs, kLimits);
    best_rungs.push_back(rounds.back().best_rung);
    rounds.back().steal = steal_share(before, read_cpu_times());
    std::fprintf(stderr, "perfbench: round %zu best %.0f/s steal %.2f%%\n", rounds.size(),
                 rounds.back().best_rate, 100.0 * rounds.back().steal);
    if (rounds.back().steal < kQuietSteal) ++quiet;
  }
  const ShardStatsSnapshot after_ladder = daemon.totals();
  // Reference phases ran in between; at 20k/s they barely move the fill.
  const double ladder_received =
      static_cast<double>(after_ladder.received - before_ladder.received);
  const double ladder_batches =
      static_cast<double>(after_ladder.batches - before_ladder.batches);

  std::vector<const Round*> selected;
  for (const Round& r : rounds) selected.push_back(&r);
  std::stable_sort(selected.begin(), selected.end(),
                   [](const Round* a, const Round* b) { return a->steal < b->steal; });
  selected.resize(std::max(quiet, kMinRounds));
  Reference ref;  // the selected rounds' reference phases, pooled
  std::vector<double> round_max_qps;
  double pass_answers = 0.0, pass_cpu = 0.0;
  for (const Round* r : selected) {
    ref.add(r->ref);
    round_max_qps.push_back(r->best_rate);
    pass_answers += r->pass_answers;
    pass_cpu += r->pass_cpu;
  }
  const double max_rate = median(round_max_qps);
  if (max_rate <= 0.0) rep.fail("no ladder rung met the limits");
  char rounds_note[128];
  std::snprintf(rounds_note, sizeof(rounds_note),
                "%zu of %zu rounds quiet (steal < %.0f%%), %zu used", quiet, rounds.size(),
                100.0 * kQuietSteal, selected.size());

  const WindowTail ref_tail = window_tail(ref.latency_ns, ref.lag_ns, kNoAnswer, kWindowQueries);
  const std::string ref_note = std::string(rounds_note) + "; median over " +
                               std::to_string(ref_tail.windows) + " windows of " +
                               std::to_string(kWindowQueries) + " queries at " +
                               std::to_string(static_cast<int>(kReferenceQps)) +
                               " qps, from due time";
  if (ref_tail.windows == 0 || highest_reportable_percentile(kWindowQueries) < 99.0) {
    rep.fail("too few reference samples for a window p99");
  }

  if (!args.trace) {
    daemon.stop();
    rep.add("setup_s", median(setup), "s",
            "median of " + std::to_string(setup.size()) + " construct+start+first answer");
    rep.add("events_per_s", pass_answers / pass_cpu, "1/s",
            std::string(rounds_note) + "; answers per daemon CPU second on passing rungs");
    rep.add("p50_us", ref_tail.p50_us, "us", ref_note);
    std::vector<std::uint32_t> all = ref.latency_ns;
    char every[64];
    std::snprintf(every, sizeof(every), "; pooled: %.1f us", percentile(all, 99.0) / 1000.0);
    rep.add_info("p99_us", ref_tail.p99_us, "us", ref_note + every);
    char note[128];
    std::snprintf(note, sizeof(note),
                  "; median over rounds of the best passing rung, limits p99 %.0f us, loss %.3f%%",
                  kLimits.p99_us, kLimits.loss * 100);
    rep.add("max_qps", max_rate, "1/s", rounds_note + std::string(note));
    rep.add("peak_rss_mb", peak_rss_mb(), "MB");
    rep.add_info("wall_s", ref.span_s / ref.phases, "s",
                 "reference phase, first due time to last answer");
    rep.add_info("cpu_s", ref.daemon_cpu * 1e5 / static_cast<double>(ref.answered), "s",
                 "daemon CPU per 100k answers at the reference rate");
    return rep;
  }

  // ---- traced: the obs registry, then the layers timed one call at a time ----
  adattl::obs::MetricsRegistry registry;
  daemon.bind_observability(&registry);
  Reference traced_ref;
  reference_phase(&traced_ref);
  daemon.publish_metrics();
  const ShardStatsSnapshot total = daemon.totals();
  const adattl::obs::MetricsSnapshot snap = registry.snapshot();
  std::vector<double> received;
  for (int s = 0; s < kShards; ++s) {
    const ShardStatsSnapshot st = daemon.shard_stats(s);
    received.push_back(static_cast<double>(st.received));
    const auto* m = snap.find("dnsd.shard" + std::to_string(s) + ".answered");
    if (!m || m->value != static_cast<double>(st.answered)) {
      rep.fail("obs registry disagrees with the shard counters");
    }
  }
  daemon.stop();

  // The layers on the workload's own stream, through a core built from the
  // daemon's config (shard 0's scheduler state and seed).
  adattl::dnswire::ShardCore core(cfg, 0);
  std::vector<std::vector<std::uint8_t>> wire;
  for (std::size_t k = 0; k < queries.size(); ++k) {
    wire.push_back(queries[k].wire);
    wire.back()[0] = static_cast<std::uint8_t>(k >> 8);
    wire.back()[1] = static_cast<std::uint8_t>(k);
  }
  const std::uint32_t src_ip = 0x7f000001u;
  const auto src_port = [](std::size_t k) { return static_cast<std::uint16_t>(40000 + k % 4); };
  std::vector<adattl::dnswire::Header> headers(wire.size());
  std::vector<adattl::dnswire::Question> questions(wire.size());
  std::vector<int> domains(wire.size());
  std::size_t sink = 0;
  const double key_ns = mean_ns(wire.size(), [&](std::size_t k) {
    domains[k] = adattl::dnswire::derive_domain_key(wire[k].data(), wire[k].size(), src_ip,
                                                    src_port(k), cfg.num_domains, true);
  });
  const double decode_ns = mean_ns(wire.size(), [&](std::size_t k) {
    sink += adattl::dnswire::decode_query(wire[k], &headers[k], &questions[k]);
  });
  const double encode_ns = mean_ns(wire.size(), [&](std::size_t k) {
    if (questions[k].qtype == adattl::dnswire::kTypeAaaa) {
      sink += adattl::dnswire::encode_aaaa_response(
                  headers[k], questions[k], adattl::dnswire::v4_mapped_ipv6(cfg.server_ipv4[0]),
                  240)
                  .size();
    } else {
      sink += adattl::dnswire::encode_a_response(headers[k], questions[k], cfg.server_ipv4[0],
                                                 240)
                  .size();
    }
  });
  const double decide_ns = mean_ns(wire.size(), [&](std::size_t k) {
    sink += static_cast<std::size_t>(core.scheduler().schedule(domains[k]).server);
  });
  const double handle_ns = mean_ns(wire.size(), [&](std::size_t k) {
    sink += core.handle(wire[k].data(), wire[k].size(), src_ip, src_port(k)).size();
  });
  if (sink == 0) rep.fail("layer timing produced nothing");

  const double mean_received = (received[0] + received[1]) / kShards;
  for (const char* m : {"sim.events", "sim.peak_pending", "sim.cancels"}) {
    rep.add(m, 0.0, "count", "not exercised");
  }
  for (const char* m : {"sim.warmup_s", "sim.measure_s", "sim.collect_s"}) {
    rep.add(m, 0.0, "s", "not exercised");
  }
  rep.add("workload.pages", 0.0, "count", "not exercised");
  rep.add("workload.hits", 0.0, "count", "not exercised");
  rep.add("dnscache.auth_queries", 0.0, "count", "not exercised");
  rep.add("dnscache.ns_hit_ratio", 0.0, "ratio", "not exercised");
  rep.add("core.decisions", static_cast<double>(total.decisions), "count", "daemon, all shards");
  rep.add("core.mean_ttl_s", ref.ttl_sum / static_cast<double>(ref.answered), "s",
          "reference answers");
  rep.add("core.alarm_signals", 0.0, "count", "daemon has no monitor feed");
  rep.add("core.decide_ns", decide_ns, "ns", "DnsScheduler::schedule on the stream's domains");
  rep.add("web.prob_below_098", 0.0, "ratio", "not exercised");
  rep.add("web.mean_max_util", 0.0, "ratio", "not exercised");
  rep.add("fault.events", 0.0, "count", "not exercised");
  rep.add("core.pool_changes", 0.0, "count", "not exercised");
  for (const char* m : {"experiment.setup_share", "experiment.sweep_efficiency",
                        "experiment.shard_event_skew", "experiment.shard_client_skew"}) {
    rep.add(m, 0.0, "ratio", "not exercised");
  }
  rep.add("dnswire.handle_ns", handle_ns, "ns", "ShardCore::handle");
  rep.add("dnswire.key_ns", key_ns, "ns", "derive_domain_key");
  rep.add("dnswire.ecs_key_ratio",
          static_cast<double>(total.ecs_keys) /
              static_cast<double>(total.ecs_keys + total.hash_keys),
          "ratio", "daemon counters");
  rep.add("dnswire.decode_ns", decode_ns, "ns", "decode_query");
  rep.add("dnswire.encode_ns", encode_ns, "ns", "encode_a/aaaa_response");
  rep.add("daemon.cpu_us_per_answer",
          ref.daemon_cpu * 1e6 / static_cast<double>(ref.answered), "us", "reference rate");
  rep.add("daemon.batch_fill", ladder_received / (ladder_batches * kDaemonBatch), "ratio",
          "ladder");
  rep.add("daemon.shard_skew", *std::max_element(received.begin(), received.end()) /
                                   mean_received,
          "ratio");
  rep.add("daemon.kernel_drops", static_cast<double>(total.dropped_kernel), "count",
          "includes overloaded rungs");
  rep.add("daemon.send_errors", static_cast<double>(total.send_errors), "count");
  rep.add("daemon.undecodable", static_cast<double>(total.dropped_undecodable), "count");
  rep.add("bench.gen_lag_p99_us", ref_tail.lag_p99_us, "us", ref_note);
  rep.add("bench.trace_overhead",
          (traced_ref.daemon_cpu / static_cast<double>(traced_ref.answered)) /
              (ref.daemon_cpu / static_cast<double>(ref.answered)),
          "ratio", "daemon CPU per answer at the reference rate, registry bound / unbound");
  return rep;
}

}  // namespace perfbench
