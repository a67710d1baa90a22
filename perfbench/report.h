// What one benchmark invocation reports, and how it is printed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count or definition, for the summary only
};

/// Command-line arguments of one run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Result of one workload run: end-to-end metrics (untraced run) or
/// per-layer metrics (traced run), plus the correctness tally.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Printed in the summary only, not part of the result line.
  std::vector<Metric> info;
  std::vector<std::string> problems;  ///< why `correct` is false

  void add(std::string name, double value, std::string unit, std::string note = "") {
    metrics.push_back({std::move(name), value, std::move(unit), std::move(note)});
  }
  void add_info(std::string name, double value, std::string unit, std::string note = "") {
    info.push_back({std::move(name), value, std::move(unit), std::move(note)});
  }
  /// Records a failed correctness check; `correct` turns false.
  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// User + system CPU seconds of this process so far, all threads.
double process_cpu_s();

/// CPUs this process may run on.
int available_cpus();

/// Prints a human-readable summary, then the one-line JSON result as the
/// last line of stdout. Returns false (printing nothing) when a metric
/// name or unit breaks the grammar or a value is not finite.
bool print_report(const Report& report, const Args& args);

Report run_paper_sweep(const Args& args);
Report run_scale_sharded(const Args& args);
Report run_dnsd(const Args& args, bool ecs_mix);

}  // namespace perfbench
