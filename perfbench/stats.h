// Order statistics and decision rules of the benchmark. Header-only so the
// self-tests exercise exactly the code the benchmark runs.
#pragma once

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in [0, 100]) of `v`; sorts `v` in place.
/// An empty vector yields 0.
template <typename T>
double percentile(std::vector<T>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()) - 1e-9);
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return static_cast<double>(v[std::min(idx, v.size() - 1)]);
}

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, double p) {
  // The epsilon keeps 99.9% of 10000 at rank 9990 despite rounding.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return n - std::min(n, static_cast<std::size_t>(std::max(rank, 1.0)));
}

/// The highest percentile a timing may be reported at with `n` samples:
/// the largest of 99.9, 99, 90 and 50 that leaves at least ten samples
/// beyond it. Returns 0 when even the median has fewer than ten beyond.
inline double highest_reportable_percentile(std::size_t n) {
  for (double p : {99.9, 99.0, 90.0, 50.0}) {
    if (samples_beyond(n, p) >= 10) return p;
  }
  return 0.0;
}

/// Median of a copy of `v` (mean of the middle pair for even sizes).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// One rung of the offered-rate ladder, reduced to what the decision needs.
struct RungOutcome {
  double offered_qps = 0.0;
  double answer_rate = 0.0;  ///< valid answers per second within the rung's schedule
  double p99_us = 0.0;       ///< failures count as beyond any limit
  double loss = 0.0;         ///< unanswered share
  double lag_p99_us = 0.0;   ///< generator lateness
};

/// Limits a rung must meet to count as served.
struct LadderLimits {
  double p99_us;
  double loss;
  double lag_p99_us;
};

inline bool rung_passes(const RungOutcome& r, const LadderLimits& lim) {
  return r.p99_us <= lim.p99_us && r.loss <= lim.loss && r.lag_p99_us <= lim.lag_p99_us;
}

/// max_qps: the measured answer rate at the highest offered rate whose rung
/// passes. 0 when no rung passes.
inline double max_qps(const std::vector<RungOutcome>& rungs, const LadderLimits& lim) {
  double best_offered = -1.0;
  double rate = 0.0;
  for (const RungOutcome& r : rungs) {
    if (rung_passes(r, lim) && r.offered_qps > best_offered) {
      best_offered = r.offered_qps;
      rate = r.answer_rate;
    }
  }
  return rate;
}

/// Latency, loss and lateness of one phase over its quiet windows: the
/// phase is cut into `windows` equal runs of consecutive queries (in due
/// order), the windows are ranked by their own p99 (an unanswered query
/// counts as slower than any answer), and the quietest `keep_fraction` of
/// them are pooled. A host stall of a few ms, which a time-shared CPU
/// imposes now and then, lands in a few short windows and does not decide
/// the result; a slow or saturated server is slow in every window.
struct QuietTail {
  double p50_us = 0.0;
  double p99_us = 0.0;  ///< unanswered queries count as slower than any answer
  double loss = 0.0;    ///< unanswered share
  double lag_p99_us = 0.0;
  std::size_t pooled = 0;  ///< queries in the kept windows
};

/// `latency_ns[k]` is query k's latency or `no_answer`; `lag_ns[k]` its
/// send lateness.
inline QuietTail quiet_tail(const std::vector<std::uint32_t>& latency_ns,
                            const std::vector<std::uint32_t>& lag_ns, std::uint32_t no_answer,
                            int windows, double keep_fraction) {
  QuietTail out;
  const std::size_t n = latency_ns.size();
  if (n == 0 || windows < 1) return out;
  const std::size_t w_count = static_cast<std::size_t>(windows);
  const auto bound = [&](std::size_t w) { return n * w / w_count; };
  std::vector<std::pair<double, std::size_t>> ranked;  // (window p99, window)
  for (std::size_t w = 0; w < w_count; ++w) {
    std::vector<std::uint32_t> lat(latency_ns.begin() + static_cast<std::ptrdiff_t>(bound(w)),
                                   latency_ns.begin() + static_cast<std::ptrdiff_t>(bound(w + 1)));
    if (!lat.empty()) ranked.emplace_back(percentile(lat, 99.0), w);
  }
  std::sort(ranked.begin(), ranked.end());
  const std::size_t keep = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(keep_fraction * static_cast<double>(ranked.size()))));
  std::vector<std::uint32_t> lat, late;
  for (std::size_t i = 0; i < keep && i < ranked.size(); ++i) {
    const std::size_t w = ranked[i].second;
    lat.insert(lat.end(), latency_ns.begin() + static_cast<std::ptrdiff_t>(bound(w)),
               latency_ns.begin() + static_cast<std::ptrdiff_t>(bound(w + 1)));
    late.insert(late.end(), lag_ns.begin() + static_cast<std::ptrdiff_t>(bound(w)),
                lag_ns.begin() + static_cast<std::ptrdiff_t>(bound(w + 1)));
  }
  const auto us = [&](double ns) { return ns >= no_answer ? HUGE_VAL : ns / 1000.0; };
  out.pooled = lat.size();
  out.loss = static_cast<double>(std::count(lat.begin(), lat.end(), no_answer)) /
             static_cast<double>(lat.size());
  out.p50_us = us(percentile(lat, 50.0));
  out.p99_us = us(percentile(lat, 99.0));
  out.lag_p99_us = percentile(late, 99.0) / 1000.0;
  return out;
}

/// Latency and lateness of a phase read window by window: the queries (in
/// due order) are cut into consecutive windows of `window` queries, each
/// window gets its own p50, p99 and lateness p99 (an unanswered query counts
/// as slower than any answer), and each statistic is the median over the
/// windows. A host stall that spoils a few windows moves the median window
/// little; a server slow everywhere is slow in every window. A last window
/// shorter than `window` is left out.
struct WindowTail {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double lag_p99_us = 0.0;
  std::size_t windows = 0;
};

inline WindowTail window_tail(const std::vector<std::uint32_t>& latency_ns,
                              const std::vector<std::uint32_t>& lag_ns, std::uint32_t no_answer,
                              std::size_t window) {
  WindowTail out;
  if (window == 0) return out;
  const auto us = [&](double ns) { return ns >= no_answer ? HUGE_VAL : ns / 1000.0; };
  std::vector<double> p50, p99, lag;
  for (std::size_t b = 0; b + window <= latency_ns.size(); b += window) {
    const auto first = static_cast<std::ptrdiff_t>(b);
    const auto last = static_cast<std::ptrdiff_t>(b + window);
    std::vector<std::uint32_t> lat(latency_ns.begin() + first, latency_ns.begin() + last);
    std::vector<std::uint32_t> late(lag_ns.begin() + first, lag_ns.begin() + last);
    p50.push_back(us(percentile(lat, 50.0)));
    p99.push_back(us(percentile(lat, 99.0)));
    lag.push_back(percentile(late, 99.0) / 1000.0);
  }
  out.windows = p50.size();
  out.p50_us = median(p50);
  out.p99_us = median(p99);
  out.lag_p99_us = median(lag);
  return out;
}

/// Metric and unit names: one to 64 of [A-Za-z0-9_.-] starting with a
/// letter or digit (units: one to 16 of [A-Za-z0-9_/%.-]).
inline bool valid_metric_name(const std::string& s) {
  if (s.empty() || s.size() > 64 || !std::isalnum(static_cast<unsigned char>(s[0]))) {
    return false;
  }
  return std::all_of(s.begin(), s.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' || c == '-';
  });
}

inline bool valid_unit(const std::string& s) {
  if (s.empty() || s.size() > 16) return false;
  return std::all_of(s.begin(), s.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '/' || c == '%' ||
           c == '.' || c == '-';
  });
}

}  // namespace perfbench
