// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: paper_sweep, scale_sharded, dnsd_plain, dnsd_ecs_mix (see
// README.md for why each exists and what every metric means). The last
// line of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Exit status 0 only when every correctness check passed.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "loadgen.h"
#include "report.h"
#include "stats.h"

namespace perfbench {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

int available_cpus() { return static_cast<int>(allowed_cpus().size()); }

namespace {

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

bool print_report(const Report& report, const Args& args) {
  for (const Metric& m : report.metrics) {
    if (!valid_metric_name(m.name) || !valid_unit(m.unit) || !std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: bad metric %s = %g %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
      return false;
    }
  }
  const double fail_frac =
      report.attempted ? static_cast<double>(report.failed) / report.attempted : 0.0;
  std::printf("# workload %s seed %llu seconds %g trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  for (const Metric& m : report.metrics) {
    std::printf("# %-28s %16.6g %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
  for (const Metric& m : report.info) {
    std::printf("# %-28s %16.6g %-6s %s (not in the result line)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::printf("# %-28s %16.6g %-6s failed %llu of %llu attempted\n", "fail_frac", fail_frac,
              "1", static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  for (const std::string& p : report.problems) std::printf("# FAILED CHECK: %s\n", p.c_str());

  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    if (i) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + json_number(m.value) + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return true;
}

}  // namespace perfbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper_sweep|scale_sharded|dnsd_plain|dnsd_ecs_mix"
               " --seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to measure a build with assertions enabled\n");
  return 2;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build; configure Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  // A fixed mmap threshold turns off glibc's adaptive one, so every large
  // block (a client pool, a grown event heap) is mapped fresh and every
  // set-up pays the same page faults, instead of reusing a previous run's
  // pages depending on how many runs came before.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  perfbench::Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val, &end, 10);
      if (*end != '\0') return usage();
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return usage();
    } else if (key == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) return usage();
      args.trace = val[0] == '1';
    } else {
      return usage();
    }
  }
  if (!have_workload || argc % 2 == 0) return usage();

  perfbench::Report report;
  try {
    if (args.workload == "paper_sweep") {
      report = perfbench::run_paper_sweep(args);
    } else if (args.workload == "scale_sharded") {
      report = perfbench::run_scale_sharded(args);
    } else if (args.workload == "dnsd_plain") {
      report = perfbench::run_dnsd(args, false);
    } else if (args.workload == "dnsd_ecs_mix") {
      report = perfbench::run_dnsd(args, true);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  if (!perfbench::print_report(report, args)) return 1;
  return report.correct && report.failed == 0 ? 0 : 1;
}
