#include "loadgen.h"

#include <arpa/inet.h>
#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

constexpr int kBatch = 64;
constexpr std::size_t kRxSize = 1500;
constexpr std::int64_t kSpinNs = 50'000;  // busy-wait below this, sleep above

std::uint16_t be16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

std::uint32_t be32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::uint32_t clamp_ns(std::int64_t ns) {
  if (ns < 0) return 0;
  return ns >= kNoAnswer ? kNoAnswer - 1 : static_cast<std::uint32_t>(ns);
}

/// Compares the uncompressed name at data[pos] with `expected` (wire form,
/// lower case) case-insensitively; advances pos past it.
bool match_name(const std::uint8_t* data, std::size_t len, std::size_t* pos,
                const std::vector<std::uint8_t>& expected) {
  if (*pos + expected.size() > len) return false;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    std::uint8_t c = data[*pos + i];
    if (c >= 'A' && c <= 'Z') c = static_cast<std::uint8_t>(c - 'A' + 'a');
    if (c != expected[i]) return false;
  }
  *pos += expected.size();
  return true;
}

}  // namespace

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000LL + ts.tv_nsec;
}

std::vector<std::uint8_t> name_wire(const std::string& dotted) {
  std::vector<std::uint8_t> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t dot = dotted.find('.', start);
    const std::size_t end = dot == std::string::npos ? dotted.size() : dot;
    out.push_back(static_cast<std::uint8_t>(end - start));
    for (std::size_t i = start; i < end; ++i) {
      out.push_back(static_cast<std::uint8_t>(std::tolower(static_cast<unsigned char>(dotted[i]))));
    }
    if (dot == std::string::npos) break;
    start = dot + 1;
  }
  out.push_back(0);
  return out;
}

std::vector<std::uint8_t> build_query(const std::vector<std::uint8_t>& qname_wire,
                                      std::uint16_t qtype, std::uint32_t ecs_prefix24) {
  // Header: id 0, RD, one question, one additional record when ECS.
  const std::uint8_t header[12] = {0, 0, 0x01, 0, 0, 1, 0, 0, 0, 0, 0,
                                   static_cast<std::uint8_t>(ecs_prefix24 ? 1 : 0)};
  const std::uint8_t question_tail[4] = {static_cast<std::uint8_t>(qtype >> 8),
                                         static_cast<std::uint8_t>(qtype & 0xff), 0, 1};
  // OPT RR: root owner, type 41, class = UDP payload 1232, TTL 0, rdata =
  // one option (code 8, len 7): family 1, source /24, scope 0, 3 bytes.
  const std::uint8_t opt[22] = {0, 0, 41, 0x04, 0xd0, 0, 0, 0, 0, 0, 11, 0, 8, 0, 7, 0, 1, 24, 0,
                                static_cast<std::uint8_t>(ecs_prefix24 >> 24),
                                static_cast<std::uint8_t>(ecs_prefix24 >> 16),
                                static_cast<std::uint8_t>(ecs_prefix24 >> 8)};
  std::vector<std::uint8_t> q(sizeof(header) + qname_wire.size() + sizeof(question_tail) +
                              (ecs_prefix24 ? sizeof(opt) : 0));
  std::uint8_t* out = q.data();
  out = std::copy(header, header + sizeof(header), out);
  out = std::copy(qname_wire.begin(), qname_wire.end(), out);
  out = std::copy(question_tail, question_tail + sizeof(question_tail), out);
  if (ecs_prefix24) std::copy(opt, opt + sizeof(opt), out);
  return q;
}

bool parse_reply(const std::uint8_t* data, std::size_t len, const ReplyRules& rules,
                 Reply* out) {
  if (len < 12) return false;
  out->id = be16(data);
  if ((data[2] & 0x80) == 0) return false;  // not a response
  out->rcode = data[3] & 0x0f;
  const std::uint16_t qdcount = be16(data + 4);
  const std::uint16_t ancount = be16(data + 6);
  if (qdcount != 1) return false;
  std::size_t pos = 12;
  if (!match_name(data, len, &pos, rules.qname_wire)) return false;
  if (pos + 4 > len) return false;
  out->qtype = be16(data + pos);
  if (be16(data + pos + 2) != 1) return false;  // class IN
  pos += 4;
  out->ttl = 0;
  out->address_ok = false;
  if (out->rcode != 0) return true;
  if (ancount < 1) return false;
  // Answer owner: a pointer to the question name or the name spelled out.
  if (pos + 2 <= len && data[pos] == 0xc0 && data[pos + 1] == 12) {
    pos += 2;
  } else if (!match_name(data, len, &pos, rules.qname_wire)) {
    return false;
  }
  if (pos + 10 > len) return false;
  const std::uint16_t type = be16(data + pos);
  const std::uint16_t cls = be16(data + pos + 2);
  out->ttl = be32(data + pos + 4);
  const std::uint16_t rdlen = be16(data + pos + 8);
  pos += 10;
  if (cls != 1 || type != out->qtype || pos + rdlen > len) return false;
  std::uint32_t v4 = 0;
  if (type == 1 && rdlen == 4) {
    v4 = be32(data + pos);
  } else if (type == 28 && rdlen == 16) {
    // The daemon answers AAAA with the v4-mapped ::ffff:a.b.c.d form.
    static constexpr std::uint8_t kMapped[12] = {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff};
    if (std::memcmp(data + pos, kMapped, 12) != 0) return true;
    v4 = be32(data + pos + 12);
  } else {
    return false;
  }
  for (std::uint32_t a : rules.ipv4) {
    if (a == v4) out->address_ok = true;
  }
  return true;
}

ReplyVerdict judge_reply(const Reply& reply, std::uint16_t expected_qtype) {
  if (reply.qtype != expected_qtype) return ReplyVerdict::kMismatched;
  if (reply.rcode != 0) return ReplyVerdict::kRefused;
  if (!reply.address_ok || reply.ttl == 0) return ReplyVerdict::kInvalid;
  return ReplyVerdict::kValid;
}

std::vector<int> allowed_cpus() {
  std::vector<int> out;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) out.push_back(c);
    }
  }
  if (out.empty()) out.push_back(0);
  return out;
}

void pin_thread(int tid, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(tid, sizeof(set), &set);
}

int open_client_socket(int port) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  const int buf = 4 << 20;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf, sizeof(buf));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buf, sizeof(buf));
  sockaddr_in local{};
  local.sin_family = AF_INET;
  local.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  sockaddr_in peer = local;
  peer.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&local), sizeof(local)) != 0 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&peer), sizeof(peer)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("bind/connect client socket: " + err);
  }
  return fd;
}

bool probe(int fd, const QueryTemplate& query, const ReplyRules& rules, int timeout_ms) {
  std::vector<std::uint8_t> wire = query.wire;
  const std::uint16_t id = static_cast<std::uint16_t>(now_ns() & 0xffff);
  wire[0] = static_cast<std::uint8_t>(id >> 8);
  wire[1] = static_cast<std::uint8_t>(id & 0xff);
  if (::send(fd, wire.data(), wire.size(), 0) != static_cast<ssize_t>(wire.size())) {
    return false;
  }
  const std::int64_t deadline = now_ns() + std::int64_t{timeout_ms} * 1'000'000;
  std::uint8_t rx[kRxSize];
  for (;;) {
    const std::int64_t left = deadline - now_ns();
    if (left <= 0) return false;
    pollfd p{fd, POLLIN, 0};
    ::poll(&p, 1, static_cast<int>(left / 1'000'000) + 1);
    const ssize_t n = ::recv(fd, rx, sizeof(rx), 0);
    if (n <= 0) continue;
    Reply r;
    if (parse_reply(rx, static_cast<std::size_t>(n), rules, &r) && r.id == id &&
        judge_reply(r, query.qtype) == ReplyVerdict::kValid) {
      return true;
    }
  }
}

// ---------------------------------------------------------------------------

struct LoadGen::SocketState {
  struct Slot {
    std::int64_t due = 0;
    std::uint64_t query = 0;  ///< index of the query in its phase
    std::uint16_t qtype = 0;
    bool outstanding = false;
  };
  int fd = -1;
  std::vector<Slot> slots = std::vector<Slot>(65536);  ///< indexed by DNS id
  std::uint16_t seq = 0;                               ///< next id to send
};

LoadGen::LoadGen(std::vector<int> fds, std::vector<QueryTemplate> templates, ReplyRules rules)
    : fds_(std::move(fds)), templates_(std::move(templates)), rules_(std::move(rules)) {
  if (fds_.empty() || templates_.empty()) {
    throw std::invalid_argument("LoadGen: need a socket and a query template");
  }
  for (int fd : fds_) {
    sockets_.push_back(std::make_unique<SocketState>());
    sockets_.back()->fd = fd;
  }
}

LoadGen::~LoadGen() = default;

void LoadGen::discard_pending() {
  std::uint8_t rx[kRxSize];
  for (int fd : fds_) {
    while (::recv(fd, rx, sizeof(rx), MSG_DONTWAIT) > 0) {
    }
  }
}

PhaseResult LoadGen::run_phase(double qps, double seconds, int threads, double drain_ms) {
  if (threads < 1 || threads > 2 || fds_.size() < static_cast<std::size_t>(threads)) {
    throw std::invalid_argument("LoadGen: 1 or 2 threads, each with a socket");
  }
  discard_pending();
  ++phase_;
  const std::uint64_t total = static_cast<std::uint64_t>(std::llround(qps * seconds));
  const std::uint64_t template_base = next_template_;
  next_template_ += total;
  for (auto& s : sockets_) {
    for (auto& slot : s->slots) slot.outstanding = false;
    s->seq = static_cast<std::uint16_t>(phase_ * 7919u);  // a new id range per phase
  }

  const double step_ns = 1e9 / qps;
  const std::int64_t drain_ns = static_cast<std::int64_t>(drain_ms * 1e6);
  std::vector<PhaseResult> parts(static_cast<std::size_t>(threads));
  // Threads write disjoint entries (query k belongs to thread k % threads).
  std::vector<std::uint32_t> latency(total, kNoAnswer);
  std::vector<std::uint32_t> lag(total, 0);
  // Every thread starts from the same origin a little in the future, so
  // none begins behind schedule because its siblings were spawned first.
  const std::int64_t t0 = now_ns() + 2'000'000;

  const auto worker = [&](int j) {
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    // Thread j runs on the j-th CPU from the last; the daemon's shards
    // are pinned from the first up, so neither migrates onto the other.
    const std::vector<int> cpus = allowed_cpus();
    pin_thread(0, cpus[(cpus.size() - 1 - static_cast<std::size_t>(j) % cpus.size())]);
    const double cpu0 = thread_cpu_s();
    PhaseResult& res = parts[static_cast<std::size_t>(j)];
    std::vector<SocketState*> mine;
    for (std::size_t i = static_cast<std::size_t>(j); i < sockets_.size();
         i += static_cast<std::size_t>(threads)) {
      mine.push_back(sockets_[i].get());
    }
    const std::size_t ns = mine.size();
    std::vector<pollfd> pfds(ns);
    for (std::size_t i = 0; i < ns; ++i) pfds[i] = {mine[i]->fd, POLLIN, 0};

    // Per-socket send batch; buffers hold copies with the id patched in.
    struct TxBatch {
      std::vector<std::vector<std::uint8_t>> bufs;
      std::vector<iovec> iov;
      std::vector<mmsghdr> msgs;
      int n = 0;
    };
    std::vector<TxBatch> tx(ns);
    for (TxBatch& b : tx) {
      b.bufs.resize(kBatch);
      b.iov.resize(kBatch);
      b.msgs.resize(kBatch);
    }
    std::vector<std::vector<std::uint8_t>> rxbuf(kBatch, std::vector<std::uint8_t>(kRxSize));
    std::vector<iovec> rxiov(kBatch);
    std::vector<mmsghdr> rxmsgs(kBatch);

    const auto due_of = [&](std::uint64_t k) {
      return t0 + static_cast<std::int64_t>(static_cast<double>(k) * step_ns);
    };
    const auto flush = [&](std::size_t si) {
      TxBatch& b = tx[si];
      int off = 0;
      while (off < b.n) {
        const int sent = ::sendmmsg(mine[si]->fd, b.msgs.data() + off,
                                    static_cast<unsigned>(b.n - off), 0);
        if (sent > 0) {
          off += sent;
        } else if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          pollfd p{mine[si]->fd, POLLOUT, 0};
          ::poll(&p, 1, 1);
        } else {
          // A send the kernel refused never reaches the server: its slot
          // stays outstanding and is counted unanswered.
          break;
        }
      }
      b.n = 0;
    };

    std::uint64_t k = static_cast<std::uint64_t>(j);
    std::uint64_t my_count = 0;  // queries sent by this thread
    std::uint64_t outstanding = 0;
    std::int64_t last_answer = t0;
    const std::int64_t schedule_end = t0 + static_cast<std::int64_t>(seconds * 1e9);
    const std::int64_t last_due = due_of(total > 0 ? total - 1 : 0);
    for (;;) {
      std::int64_t now = now_ns();
      // ---- send everything due ----
      if (k < total && due_of(k) <= now) {
        while (k < total && due_of(k) <= now) {
          const std::size_t si = my_count % ns;
          SocketState& sock = *mine[si];
          TxBatch& b = tx[si];
          const QueryTemplate& q = templates_[(template_base + k) % templates_.size()];
          const std::uint16_t id = sock.seq++;
          SocketState::Slot& slot = sock.slots[id];
          if (slot.outstanding) {
            ++res.unanswered;  // id space wrapped before the reply came
          } else {
            ++outstanding;
          }
          slot.due = due_of(k);
          slot.query = k;
          slot.qtype = q.qtype;
          slot.outstanding = true;
          lag[k] = clamp_ns(now - slot.due);
          std::vector<std::uint8_t>& buf = b.bufs[static_cast<std::size_t>(b.n)];
          buf.assign(q.wire.begin(), q.wire.end());
          buf[0] = static_cast<std::uint8_t>(id >> 8);
          buf[1] = static_cast<std::uint8_t>(id & 0xff);
          b.iov[static_cast<std::size_t>(b.n)] = {buf.data(), buf.size()};
          mmsghdr& m = b.msgs[static_cast<std::size_t>(b.n)];
          std::memset(&m, 0, sizeof(m));
          m.msg_hdr.msg_iov = &b.iov[static_cast<std::size_t>(b.n)];
          m.msg_hdr.msg_iovlen = 1;
          ++b.n;
          ++res.sent;
          ++my_count;
          k += static_cast<std::uint64_t>(threads);
          if (b.n == kBatch) flush(si);
        }
        for (std::size_t si = 0; si < ns; ++si) {
          if (tx[si].n > 0) flush(si);
        }
      }
      // ---- receive everything queued ----
      bool got = false;
      for (std::size_t si = 0; si < ns; ++si) {
        SocketState& sock = *mine[si];
        for (;;) {
          for (int i = 0; i < kBatch; ++i) {
            rxiov[static_cast<std::size_t>(i)] = {rxbuf[static_cast<std::size_t>(i)].data(),
                                                  kRxSize};
            std::memset(&rxmsgs[static_cast<std::size_t>(i)], 0, sizeof(mmsghdr));
            rxmsgs[static_cast<std::size_t>(i)].msg_hdr.msg_iov =
                &rxiov[static_cast<std::size_t>(i)];
            rxmsgs[static_cast<std::size_t>(i)].msg_hdr.msg_iovlen = 1;
          }
          const int n = ::recvmmsg(sock.fd, rxmsgs.data(), kBatch, MSG_DONTWAIT, nullptr);
          if (n <= 0) break;
          got = true;
          const std::int64_t t_rx = now_ns();
          for (int i = 0; i < n; ++i) {
            const std::uint8_t* data = rxbuf[static_cast<std::size_t>(i)].data();
            const std::size_t len = rxmsgs[static_cast<std::size_t>(i)].msg_len;
            if (len < 2) {
              ++res.invalid;
              continue;
            }
            SocketState::Slot& slot = sock.slots[be16(data)];
            if (!slot.outstanding) {
              ++res.unexpected;
              continue;
            }
            slot.outstanding = false;
            --outstanding;
            Reply r;
            if (!parse_reply(data, len, rules_, &r)) {
              ++res.invalid;
              continue;
            }
            switch (judge_reply(r, slot.qtype)) {
              case ReplyVerdict::kValid:
                ++res.answered;
                res.ttl_sum += r.ttl;
                last_answer = t_rx;
                if (t_rx <= schedule_end) ++res.answered_on_time;
                latency[slot.query] = clamp_ns(t_rx - slot.due);
                break;
              case ReplyVerdict::kRefused: ++res.refused; break;
              case ReplyVerdict::kMismatched: ++res.mismatched; break;
              case ReplyVerdict::kInvalid: ++res.invalid; break;
            }
          }
          if (n < kBatch) break;
        }
      }
      if (got) continue;
      now = now_ns();
      if (k >= total && (outstanding == 0 || now > last_due + drain_ns)) break;
      // ---- idle: sleep until the next due time or a reply ----
      const std::int64_t next = k < total ? due_of(k) : last_due + drain_ns;
      const std::int64_t wait = next - now - kSpinNs;
      if (wait > 0) {
        const timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                          static_cast<long>(wait % 1'000'000'000)};
        ::ppoll(pfds.data(), static_cast<nfds_t>(ns), &ts, nullptr);
      }
    }
    res.unanswered += outstanding;
    res.gen_cpu_s = thread_cpu_s() - cpu0;
    res.span_s = static_cast<double>(last_answer - t0) * 1e-9;
  };

  std::vector<std::thread> pool;
  for (int j = 0; j < threads; ++j) pool.emplace_back(worker, j);
  for (std::thread& t : pool) t.join();

  PhaseResult out;
  out.offered_qps = qps;
  out.seconds = seconds;
  for (PhaseResult& p : parts) {
    out.sent += p.sent;
    out.answered += p.answered;
    out.refused += p.refused;
    out.mismatched += p.mismatched;
    out.invalid += p.invalid;
    out.unexpected += p.unexpected;
    out.unanswered += p.unanswered;
    out.gen_cpu_s += p.gen_cpu_s;
    out.span_s = std::max(out.span_s, p.span_s);
    out.answered_on_time += p.answered_on_time;
    out.ttl_sum += p.ttl_sum;
  }
  out.latency_ns = std::move(latency);
  out.lag_ns = std::move(lag);
  return out;
}

}  // namespace perfbench
