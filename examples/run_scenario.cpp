// General-purpose scenario runner: simulate any site / workload / policy
// combination straight from the command line.
//
//   ./build/examples/run_scenario --policy=DRR2-TTL/S_K --heterogeneity=50
//       --min-ttl=60 --replications=3   (one command line)
//   ./build/examples/run_scenario --policy=PRR2-TTL/K --measured --cold-start --cdf
//   ./build/examples/run_scenario --relative=1,0.9,0.3 --total-capacity=300
//       --clients=300 --csv             (one command line)
#include <cstdio>
#include <string>
#include <vector>

#include "experiment/cli.h"
#include "experiment/parallel_executor.h"
#include "experiment/param_registry.h"
#include "experiment/report.h"
#include "experiment/runner.h"
#include "obs/event_tracer.h"

using namespace adattl;

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  for (const std::string& a : args) {
    if (a == "--help" || a == "-h") {
      std::fputs(experiment::cli_usage().c_str(), stdout);
      return 0;
    }
  }

  experiment::ConfigResolution resolution;
  try {
    resolution = experiment::resolve_config(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n\n%s", e.what(), experiment::cli_usage().c_str());
    return 2;
  }
  const experiment::CliOptions& opt = resolution.options;

  if (opt.dump_params_md) {
    std::fputs(experiment::ParamRegistry::instance().params_markdown().c_str(), stdout);
    return 0;
  }
  if (opt.dump_config) {
    std::fputs(experiment::ParamRegistry::instance().dump_scenario(resolution).c_str(),
               stdout);
    return 0;
  }

  // Tracing, when asked for, rides on replication 0 itself: its run writes
  // the trace files and becomes runs[0], and the sweep runs the rest.
  const bool traced = !opt.trace_path.empty() || !opt.decisions_path.empty() ||
                      !opt.chrome_trace_path.empty();
  experiment::ReplicatedResult rep;
  if (traced) {
    try {
      experiment::SimulationConfig traced_config = opt.config;
      traced_config.trace_enabled = true;
      experiment::Site site(traced_config);
      rep.runs.push_back(site.run());
      const obs::EventTracer& tracer = *site.event_tracer();
      using View = std::string (obs::EventTracer::*)() const;
      auto write = [&tracer](const std::string& path, View view) {
        if (path.empty()) return;
        obs::EventTracer::write_file(path, (tracer.*view)());
        std::fprintf(stderr, "wrote %llu trace events (%llu dropped) to %s\n",
                     static_cast<unsigned long long>(tracer.total_recorded() - tracer.dropped()),
                     static_cast<unsigned long long>(tracer.dropped()), path.c_str());
      };
      write(opt.chrome_trace_path, &obs::EventTracer::to_chrome_json);
      write(opt.trace_path, &obs::EventTracer::utilization_csv);
      write(opt.decisions_path, &obs::EventTracer::decisions_csv);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }

  // One sweep point (config × the remaining replications) through the
  // parallel executor; replications fan across workers with output
  // identical to --jobs=1.
  const int swept_reps = opt.replications - static_cast<int>(rep.runs.size());
  if (swept_reps > 0) {
    experiment::ParallelExecutor executor(opt.jobs > 0 ? opt.jobs
                                                       : experiment::default_jobs());
    experiment::Sweep sweep;
    // Nothing reads a replication's tracer: RunResult carries no trace.
    experiment::SimulationConfig swept_config = opt.config;
    swept_config.trace_enabled = false;
    swept_config.seed += rep.runs.size();
    sweep.add(swept_config, swept_reps, opt.config.policy);
    experiment::SweepResult swept = sweep.run(executor);
    std::fprintf(stderr, "%d replications in %.2f s wall (%.2f s of runs, %d jobs)\n",
                 swept_reps, swept.wall_seconds, swept.point_cpu_seconds.front(), swept.jobs);
    for (experiment::RunResult& r : swept.points.front().runs) rep.runs.push_back(std::move(r));
  }
  const experiment::RunResult& first = rep.runs.front();

  if (opt.json) {
    std::printf("%s\n",
                experiment::to_json(opt.config, rep, resolution.provenance).c_str());
    return 0;
  }

  experiment::TableReport summary({"metric", "value", "+/-95%CI"});
  using R = experiment::TableReport;
  auto add = [&](const char* name, sim::MeanCi ci, int prec = 3) {
    summary.add_row({name, R::fmt(ci.mean, prec), R::fmt(ci.halfwidth, prec)});
  };
  add("P(maxUtil<0.90)", rep.prob_below(0.90));
  add("P(maxUtil<0.98)", rep.prob_below(0.98));
  add("mean max utilization", rep.ci([](const auto& r) { return r.mean_max_utilization; }));
  add("aggregate utilization", rep.aggregate_utilization());
  add("address requests/s", rep.address_request_rate(), 4);
  add("DNS-controlled fraction",
      rep.ci([](const auto& r) { return r.dns_controlled_fraction; }), 4);
  add("mean TTL handed out (s)", rep.ci([](const auto& r) { return r.mean_ttl; }), 1);
  add("within-run CI (frac of mean)",
      rep.ci([](const auto& r) { return r.max_util_ci_relative; }), 4);

  if (opt.csv) {
    summary.print_csv();
  } else {
    std::printf("policy %s on %d servers (%.0f%% heterogeneity), %d domains, %d clients\n",
                opt.config.policy.c_str(), opt.config.cluster.size(),
                opt.config.cluster.heterogeneity_percent(), opt.config.num_domains,
                opt.config.scaled().total_clients);
    summary.print("scenario result (" + std::to_string(opt.replications) + " replications)");
    std::printf("per-server mean utilization:");
    for (double u : first.mean_server_util) std::printf(" %.3f", u);
    std::printf("\n");
  }

  if (opt.show_cdf) {
    experiment::TableReport cdf({"maxUtil", "P(maxUtil<x)"});
    for (const auto& [u, p] : rep.mean_cdf_curve(50)) {
      cdf.add_row({R::fmt(u, 2), R::fmt(p, 4)});
    }
    if (opt.csv) {
      cdf.print_csv();
    } else {
      cdf.print("max-utilization CDF");
    }
  }
  return 0;
}
