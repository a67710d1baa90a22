// Self-tests of the benchmark's own logic: the percentile rule, the
// per-window and quiet-window tail statistics, the max_qps ladder decision,
// reply validation, the generator's lateness accounting, and the
// metric-name grammar.
//
//   perfbench_selftest    (exit 0 = all passed)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "loadgen.h"
#include "stats.h"

using namespace perfbench;

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAILED line %d: %s\n", line, what);
  }
}

#define CHECK(cond) check((cond), #cond, __LINE__)

void test_percentile_rule() {
  // The highest percentile with at least ten samples beyond it.
  CHECK(samples_beyond(1000, 99.0) == 10);
  CHECK(samples_beyond(999, 99.0) == 9);
  CHECK(highest_reportable_percentile(999) == 90.0);
  CHECK(highest_reportable_percentile(1000) == 99.0);
  CHECK(highest_reportable_percentile(9999) == 99.0);
  CHECK(highest_reportable_percentile(10000) == 99.9);
  CHECK(highest_reportable_percentile(100) == 90.0);
  CHECK(highest_reportable_percentile(20) == 50.0);
  CHECK(highest_reportable_percentile(19) == 0.0);
  // Nearest rank: the p99 of 1..1000 is 990, with 10 samples beyond it.
  std::vector<int> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  CHECK(percentile(v, 99.0) == 990.0);
  CHECK(percentile(v, 50.0) == 500.0);
  CHECK(percentile(v, 100.0) == 1000.0);
  std::vector<int> empty;
  CHECK(percentile(empty, 50.0) == 0.0);
  CHECK(median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(median({4.0, 1.0, 2.0, 3.0}) == 2.5);
}

void test_window_tail() {
  // Ten windows of 1000 queries at 50 µs; two windows stall at 5 ms.
  std::vector<std::uint32_t> lat(10'500, 50'000), lag(10'500, 1'000);
  for (int k = 3000; k < 5000; ++k) lat[static_cast<std::size_t>(k)] = 5'000'000;
  WindowTail w = window_tail(lat, lag, kNoAnswer, 1000);
  CHECK(w.windows == 10);  // the last 500 queries are a partial window
  CHECK(w.p50_us == 50.0 && w.p99_us == 50.0 && w.lag_p99_us == 1.0);
  // A slow tail in every window is the median window's tail.
  for (std::size_t k = 0; k < lat.size(); k += 50) lat[k] = 900'000;
  CHECK(window_tail(lat, lag, kNoAnswer, 1000).p99_us == 900.0);
  // Unanswered queries beyond 1% of every window make its p99 infinite.
  std::vector<std::uint32_t> lost(2000, 10'000);
  for (std::size_t k = 0; k < lost.size(); k += 50) lost[k] = kNoAnswer;
  CHECK(std::isinf(window_tail(lost, lag, kNoAnswer, 1000).p99_us));
  CHECK(window_tail(lost, lag, kNoAnswer, 1000).p50_us == 10.0);
  CHECK(window_tail(lost, lag, kNoAnswer, 5000).windows == 0);
}

void test_quiet_tail() {
  // Ten windows of 1000 queries at 50 µs; one window stalls at 5 ms.
  std::vector<std::uint32_t> lat(10'000, 50'000), lag(10'000, 1'000);
  for (int k = 3000; k < 4000; ++k) lat[static_cast<std::size_t>(k)] = 5'000'000;
  QuietTail q = quiet_tail(lat, lag, kNoAnswer, 10, 0.5);
  CHECK(q.pooled == 5000);
  CHECK(q.p50_us == 50.0 && q.p99_us == 50.0);
  CHECK(q.lag_p99_us == 1.0);
  // Kept whole, the stalled window owns the tail.
  CHECK(quiet_tail(lat, lag, kNoAnswer, 10, 1.0).p99_us == 5000.0);
  CHECK(quiet_tail(lat, lag, kNoAnswer, 1, 0.5).p99_us == 5000.0);
  // A server slow everywhere is slow in the quiet half too.
  for (int k = 0; k < 10'000; k += 50) lat[static_cast<std::size_t>(k)] = 900'000;
  CHECK(quiet_tail(lat, lag, kNoAnswer, 10, 0.5).p99_us == 900.0);
  // Unanswered queries count as slower than any answer, and as loss.
  std::vector<std::uint32_t> lost(1000, 10'000);
  for (int k = 0; k < 20; ++k) lost[static_cast<std::size_t>(k)] = kNoAnswer;
  CHECK(std::isinf(quiet_tail(lost, lag, kNoAnswer, 1, 1.0).p99_us));
  CHECK(quiet_tail(lost, lag, kNoAnswer, 1, 1.0).loss == 0.02);
  CHECK(quiet_tail(lost, lag, kNoAnswer, 10, 0.5).loss == 0.0);  // the lossy window is dropped
  for (int k = 0; k < 10; ++k) lost[static_cast<std::size_t>(k)] = 10'000;
  CHECK(quiet_tail(lost, lag, kNoAnswer, 1, 1.0).p99_us == 10.0);
}

void test_ladder_decision() {
  const LadderLimits lim{1000.0, 0.001, 500.0};
  const RungOutcome ok{100'000, 99'990, 200.0, 0.0, 10.0};
  CHECK(rung_passes(ok, lim));
  RungOutcome slow = ok;
  slow.p99_us = 1000.5;
  CHECK(!rung_passes(slow, lim));
  RungOutcome lossy = ok;
  lossy.loss = 0.0011;
  CHECK(!rung_passes(lossy, lim));
  RungOutcome lagging = ok;
  lagging.lag_p99_us = 501.0;
  CHECK(!rung_passes(lagging, lim));
  RungOutcome failed = ok;
  failed.p99_us = HUGE_VAL;
  CHECK(!rung_passes(failed, lim));
  // The highest passing offered rate wins, even after a failed lower rung,
  // and max_qps is the rate measured there, not the offered one.
  std::vector<RungOutcome> rungs = {
      {100'000, 99'000, 100, 0, 1}, {200'000, 199'000, 5000, 0, 1},
      {150'000, 149'500, 100, 0, 1}, {300'000, 290'000, 100, 0.05, 1}};
  CHECK(max_qps(rungs, lim) == 149'500);
  CHECK(max_qps({failed}, lim) == 0.0);
}

void test_reply_validation() {
  const ReplyRules rules{name_wire("www.site.org"), {0x0a000001u, 0x0a000002u}};
  const std::vector<std::uint8_t> q = build_query(rules.qname_wire, 1);
  const std::size_t qlen = q.size();
  std::vector<std::uint8_t> r = q;
  r[0] = 0x12;
  r[1] = 0x34;
  r[2] |= 0x80;  // QR
  r[7] = 1;      // ancount
  const std::uint8_t answer[] = {0xc0, 12, 0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 10, 0, 0, 2};
  r.insert(r.end(), answer, answer + sizeof(answer));
  Reply out;
  CHECK(parse_reply(r.data(), r.size(), rules, &out));
  CHECK(out.id == 0x1234 && out.ttl == 60 && out.address_ok);
  CHECK(judge_reply(out, 1) == ReplyVerdict::kValid);
  CHECK(judge_reply(out, 28) == ReplyVerdict::kMismatched);
  std::vector<std::uint8_t> bad = r;
  bad[bad.size() - 1] = 9;  // 10.0.0.9 is no server
  CHECK(parse_reply(bad.data(), bad.size(), rules, &out) &&
        judge_reply(out, 1) == ReplyVerdict::kInvalid);
  bad = r;
  bad[qlen + 9] = 0;  // TTL 0
  CHECK(parse_reply(bad.data(), bad.size(), rules, &out) &&
        judge_reply(out, 1) == ReplyVerdict::kInvalid);
  bad = r;
  bad[3] = 5;  // REFUSED
  CHECK(parse_reply(bad.data(), bad.size(), rules, &out) &&
        judge_reply(out, 1) == ReplyVerdict::kRefused);
  bad = r;
  bad[13] = 'x';  // another name
  CHECK(!parse_reply(bad.data(), bad.size(), rules, &out));
  CHECK(!parse_reply(r.data(), 20, rules, &out));
  CHECK(!parse_reply(q.data(), q.size(), rules, &out));  // a query, not a reply
}

/// A bench-owned responder: answers every A query with 10.0.0.1, TTL 60.
class FakeServer {
 public:
  FakeServer() {
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    sockaddr_in a{};
    a.sin_family = AF_INET;
    a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::bind(fd_, reinterpret_cast<const sockaddr*>(&a), sizeof(a));
    socklen_t len = sizeof(a);
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&a), &len);
    port_ = ntohs(a.sin_port);
    timeval tv{0, 20'000};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    thread_ = std::thread([this] { serve(); });
  }
  ~FakeServer() {
    stop_ = true;
    thread_.join();
    ::close(fd_);
  }
  FakeServer(const FakeServer&) = delete;
  FakeServer& operator=(const FakeServer&) = delete;
  int port() const { return port_; }

 private:
  void serve() {
    std::uint8_t buf[1500];
    const std::uint8_t answer[] = {0xc0, 12, 0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 10, 0, 0, 1};
    while (!stop_) {
      sockaddr_in peer{};
      socklen_t plen = sizeof(peer);
      const ssize_t n =
          ::recvfrom(fd_, buf, sizeof(buf) - sizeof(answer), 0,
                     reinterpret_cast<sockaddr*>(&peer), &plen);
      if (n < 12) continue;
      buf[2] |= 0x80;
      buf[7] = 1;
      std::memcpy(buf + n, answer, sizeof(answer));
      ::sendto(fd_, buf, static_cast<std::size_t>(n) + sizeof(answer), 0,
               reinterpret_cast<const sockaddr*>(&peer), plen);
    }
  }
  int fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

void test_lateness_accounting() {
  FakeServer server;
  const ReplyRules rules{name_wire("www.site.org"), {0x0a000001u}};
  const int fd = open_client_socket(server.port());
  LoadGen gen({fd}, {QueryTemplate{build_query(rules.qname_wire, 1), 1}}, rules);

  // A gentle phase: everything answered, each reply timed from its due
  // time, so no latency is below its own send lateness.
  PhaseResult easy = gen.run_phase(2000.0, 0.2, 1);
  CHECK(easy.sent == 400 && easy.latency_ns.size() == 400);
  CHECK(easy.answered == 400 && easy.unanswered == 0 && easy.invalid == 0);
  bool ordered = true;
  for (std::size_t k = 0; k < easy.latency_ns.size(); ++k) {
    ordered = ordered && easy.latency_ns[k] >= easy.lag_ns[k];
  }
  CHECK(ordered);
  CHECK(easy.span_s >= 0.199 && easy.span_s < 0.3);
  CHECK(easy.answer_rate() > 1900.0 && easy.answer_rate() <= 2000.0);

  // Over-driven: 2M queries/s cannot leave one thread on time, so the
  // lateness the generator reports grows across the phase, and every
  // answered query's latency still includes its lateness.
  PhaseResult hard = gen.run_phase(2e6, 0.05, 1, 50.0);
  CHECK(hard.sent == 100'000 && hard.lag_ns.size() == 100'000);
  CHECK(hard.lag_ns.back() > hard.lag_ns.front() + 1'000'000);
  std::vector<std::uint32_t> lag = hard.lag_ns;
  CHECK(percentile(lag, 99.0) > 1e6);
  ordered = true;
  for (std::size_t k = 0; k < hard.latency_ns.size(); ++k) {
    if (hard.latency_ns[k] != kNoAnswer) ordered = ordered && hard.latency_ns[k] >= hard.lag_ns[k];
  }
  CHECK(ordered);
  CHECK(hard.answered + hard.unanswered + hard.invalid == hard.sent);
  ::close(fd);
}

void test_metric_grammar() {
  for (const char* ok : {"setup_s", "p99_us", "sim.events", "dnswire.ecs_key_ratio",
                         "experiment.shard-event-skew", "0day"}) {
    CHECK(valid_metric_name(ok));
  }
  for (const char* bad : {"", ".events", "_x", "p99 us", "lat/ms", "é",
                          "a2345678901234567890123456789012345678901234567890123456789012345"}) {
    CHECK(!valid_metric_name(bad));
  }
  for (const char* ok : {"s", "us", "1/s", "count", "%", "MB", "ratio"}) CHECK(valid_unit(ok));
  for (const char* bad : {"", "per second", "12345678901234567"}) CHECK(!valid_unit(bad));
}

}  // namespace

int main() {
  test_percentile_rule();
  test_window_tail();
  test_quiet_tail();
  test_ladder_decision();
  test_reply_validation();
  test_lateness_accounting();
  test_metric_grammar();
  if (failures) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
