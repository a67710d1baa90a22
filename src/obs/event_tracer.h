#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"

namespace adattl::obs {

/// Typed timeline records. The integer payloads `a`/`b` and the double
/// `value` are interpreted per kind (see the table in trace docs):
///
///   kDecision      a=domain  b=server  value=ttl_sec
///   kAlarm         a=server            value=utilization
///   kNormal        a=server            value=utilization
///   kNsRefresh     a=domain  b=server  value=effective_ttl_sec
///   kServerPause   a=server
///   kServerResume  a=server
///   kEstimatorUpdate a=windows_observed
///   kServerCrash   a=server  b=lost_pages  value=lost_hits
///   kServerRecover a=server
///   kCapacityScale a=server            value=factor
///   kDnsOutageStart                    value=duration_sec
///   kDnsOutageEnd
///   kStaleServe    a=domain  b=server
///   kRequestFailed a=domain  b=server
///   kUtilization   a=server            value=utilization over the tick
enum class TraceKind : std::uint8_t {
  kDecision = 0,
  kAlarm,
  kNormal,
  kNsRefresh,
  kServerPause,
  kServerResume,
  kEstimatorUpdate,
  kServerCrash,
  kServerRecover,
  kCapacityScale,
  kDnsOutageStart,
  kDnsOutageEnd,
  kStaleServe,
  kRequestFailed,
  kUtilization,
};

/// Short stable name ("decision", "alarm", ...), used by both exporters.
const char* trace_kind_name(TraceKind kind);

/// One fixed-size timeline record (POD — records never allocate).
struct TraceRecord {
  sim::SimTime time = 0.0;
  TraceKind kind = TraceKind::kDecision;
  std::int32_t a = 0;
  std::int32_t b = 0;
  double value = 0.0;
};

/// Bounded ring buffer of typed simulation events.
///
/// The ring is allocated once at construction; record() overwrites the
/// oldest entry when full, so steady-state tracing never allocates. The
/// tracer is wired into components as a nullable pointer — the disabled
/// cost at every instrumentation point is a single null check.
///
/// Exports: CSV (one row per record), Chrome `trace_event` JSON (load
/// chrome://tracing or https://ui.perfetto.dev and drop the file), and two
/// views derived from the records: the DNS decisions and the per-tick
/// utilization series.
class EventTracer {
 public:
  /// `capacity` > 0: maximum records retained (oldest evicted first).
  explicit EventTracer(std::size_t capacity);

  void record(sim::SimTime time, TraceKind kind, std::int32_t a = 0, std::int32_t b = 0,
              double value = 0.0) {
    TraceRecord& r = ring_[next_];
    r.time = time;
    r.kind = kind;
    r.a = a;
    r.b = b;
    r.value = value;
    next_ = next_ + 1 == ring_.size() ? 0 : next_ + 1;
    ++total_;
  }

  std::size_t capacity() const { return ring_.size(); }
  std::uint64_t total_recorded() const { return total_; }
  std::uint64_t dropped() const {
    return total_ > ring_.size() ? total_ - ring_.size() : 0;
  }

  /// Retained records in chronological (recording) order.
  std::vector<TraceRecord> records() const;

  /// "time,kind,a,b,value" rows in chronological order.
  std::string to_csv() const;

  /// kDecision records as "time,domain,server,ttl" rows in chronological
  /// order.
  std::string decisions_csv() const;

  /// kUtilization records as one "time,s0,...,max" row per monitor tick;
  /// the server columns come from the records. A tick whose first records
  /// the ring has already evicted is skipped, not written short.
  std::string utilization_csv() const;

  /// Chrome trace_event JSON: instant events, ts in microseconds, one tid
  /// per layer (0 = DNS decisions, 1 = alarms, 2 = name servers,
  /// 3 = web servers, 4 = estimator).
  std::string to_chrome_json() const;

  /// Writes `content` (from one of the exporters) to `path`; throws
  /// std::runtime_error on I/O failure.
  static void write_file(const std::string& path, const std::string& content);

 private:
  std::vector<TraceRecord> ring_;
  std::size_t next_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace adattl::obs
