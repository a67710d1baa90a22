// Open-loop UDP DNS load generator of the benchmark.
//
// Queries leave on a fixed schedule whatever the server does, and every
// reply is timed from its query's *due* time, so a stall in the server or
// in the generator shows up as latency of every query it delays. How late
// the generator itself sent (send time minus due time) is recorded per
// query so a run can tell generator lag from server latency.
#pragma once

#include <netinet/in.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// CLOCK_MONOTONIC in nanoseconds.
std::int64_t now_ns();

/// One prepared query: its wire bytes (id bytes are overwritten per send)
/// and the question type the reply must echo.
struct QueryTemplate {
  std::vector<std::uint8_t> wire;
  std::uint16_t qtype = 0;
};

/// Wire form of a dotted name (labels plus the root byte), lower case.
std::vector<std::uint8_t> name_wire(const std::string& dotted);

/// A one-question query (id 0, RD set) for `qname_wire` of type `qtype`.
/// A non-zero `ecs_prefix24` (host byte order, low byte ignored) appends an
/// EDNS0 OPT record with a Client-Subnet option for that /24.
std::vector<std::uint8_t> build_query(const std::vector<std::uint8_t>& qname_wire,
                                      std::uint16_t qtype, std::uint32_t ecs_prefix24 = 0);

/// What every reply must look like: the echoed question name (wire form,
/// lower case) and the set of server addresses an answer may carry.
struct ReplyRules {
  std::vector<std::uint8_t> qname_wire;
  std::vector<std::uint32_t> ipv4;  ///< host byte order
};

/// Parsed fields of one reply datagram.
struct Reply {
  std::uint16_t id = 0;
  std::uint8_t rcode = 0;
  std::uint16_t qtype = 0;
  std::uint32_t ttl = 0;
  bool address_ok = false;  ///< answer address is one of the servers
};

enum class ReplyVerdict { kValid, kRefused, kMismatched, kInvalid };

/// Parses `data` as a reply with the bench's own decoder (independent of
/// the program's) into `out`. Returns false when the bytes are not a
/// well-formed one-question reply with an A/AAAA answer or an error rcode.
bool parse_reply(const std::uint8_t* data, std::size_t len, const ReplyRules& rules,
                 Reply* out);

/// Verdict on a parsed reply against the query it answers.
ReplyVerdict judge_reply(const Reply& reply, std::uint16_t expected_qtype);

/// latency_ns entry of a query that got no valid answer.
inline constexpr std::uint32_t kNoAnswer = 0xffffffffu;

/// Outcome of one constant-rate phase.
struct PhaseResult {
  double offered_qps = 0.0;
  double seconds = 0.0;          ///< scheduled length of the phase
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;    ///< valid answers
  std::uint64_t refused = 0;     ///< error rcode
  std::uint64_t mismatched = 0;  ///< id of an outstanding query, wrong question
  std::uint64_t invalid = 0;     ///< unparseable, wrong address or TTL 0
  std::uint64_t unexpected = 0;  ///< id of no outstanding query
  std::uint64_t unanswered = 0;  ///< no reply before the drain deadline
  /// Per query, in due order: reply time minus due time, or kNoAnswer
  /// when no valid answer came.
  std::vector<std::uint32_t> latency_ns;
  /// Per query, in due order: send time minus due time.
  std::vector<std::uint32_t> lag_ns;
  double gen_cpu_s = 0.0;                 ///< CPU of the generator threads
  double span_s = 0.0;   ///< first due time to the last valid answer
  std::uint64_t answered_on_time = 0;  ///< valid answers before the schedule ended
  double ttl_sum = 0.0;  ///< summed TTL of the valid answers

  /// Valid answers received within the phase's schedule, per second.
  double answer_rate() const { return static_cast<double>(answered_on_time) / seconds; }
};

/// The generator over `fds` (connected, non-blocking UDP sockets). A phase
/// runs on 1 or 2 sender/receiver threads; thread j owns sockets j,
/// j + threads, ... Query k of the whole run uses template k modulo the
/// template count, so a seed fixes the exact query stream.
class LoadGen {
 public:
  LoadGen(std::vector<int> fds, std::vector<QueryTemplate> templates, ReplyRules rules);
  ~LoadGen();

  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Sends `qps` queries per second for `seconds` from `threads` threads,
  /// then waits up to `drain_ms` for outstanding replies. Replies still
  /// queued from an earlier phase are discarded first.
  PhaseResult run_phase(double qps, double seconds, int threads, double drain_ms = 100.0);

 private:
  struct SocketState;
  void discard_pending();

  std::vector<int> fds_;
  std::vector<QueryTemplate> templates_;
  ReplyRules rules_;
  std::vector<std::unique_ptr<SocketState>> sockets_;
  std::uint64_t phase_ = 0;
  std::uint64_t next_template_ = 0;
};

/// The CPUs this process may run on, ascending (at least one).
std::vector<int> allowed_cpus();

/// Restricts thread `tid` (0 = the caller) to `cpu`; best effort.
void pin_thread(int tid, int cpu);

/// Opens a non-blocking UDP socket on 127.0.0.1 connected to `port`, with
/// large socket buffers. Throws std::runtime_error on failure.
int open_client_socket(int port);

/// Sends one query on `fd` and waits up to `timeout_ms` for a valid
/// answer. Returns true when one arrived.
bool probe(int fd, const QueryTemplate& query, const ReplyRules& rules, int timeout_ms);

}  // namespace perfbench
