#pragma once

#include <cstdint>

namespace adattl::web {

/// Index of a Web server within the distributed site, 0-based; servers are
/// numbered in decreasing capacity (S_1 is index 0), matching the paper.
using ServerId = int;

/// Index of a client domain, 0-based; domains are numbered in decreasing
/// popularity (domain 0 is the busiest under Zipf rank 1).
using DomainId = int;

/// Receives the outcome of the pages it submits. A page reports exactly one
/// outcome, with the tag it was submitted with. Implementations must not
/// resubmit synchronously; schedule a retry through the simulator.
class PageSink {
 public:
  /// The last hit of the page has been served.
  virtual void page_completed(std::uint32_t tag) = 0;
  /// The page is lost: the target server rejected the submission
  /// (crashed) or dropped the page mid-service (crash while queued or in
  /// flight).
  virtual void page_failed(std::uint32_t tag) = 0;

 protected:
  ~PageSink() = default;
};

/// One page request: a burst of `hits` HTTP hits (the HTML page plus its
/// embedded objects) served back-to-back by one server. Its outcome goes
/// to `sink` with `tag`; a null sink makes it silent (the server-side
/// counters still record it). 24 bytes, trivially copyable.
struct PageRequest {
  DomainId domain = 0;
  int hits = 1;
  PageSink* sink = nullptr;
  std::uint32_t tag = 0;
};

}  // namespace adattl::web
