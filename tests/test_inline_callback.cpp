#include "sim/inline_callback.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <utility>

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// Count heap traffic so the SBO boundary is observable: captures at or
// under kInlineSize must not allocate, captures over it must box exactly
// once. Program-global, hence this suite's own test binary.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace adattl::sim {
namespace {

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

/// Non-trivial capture that counts every construction and destruction.
struct LifeCounted {
  static int constructions;
  static int destructions;

  LifeCounted() { ++constructions; }
  LifeCounted(const LifeCounted&) { ++constructions; }
  LifeCounted(LifeCounted&&) noexcept { ++constructions; }
  ~LifeCounted() { ++destructions; }

  static void reset() { constructions = destructions = 0; }
  static int alive() { return constructions - destructions; }
};
int LifeCounted::constructions = 0;
int LifeCounted::destructions = 0;

TEST(InlineCallback, EmptyByDefault) {
  InlineCallback cb;
  EXPECT_FALSE(cb);
  InlineCallback null_cb(nullptr);
  EXPECT_FALSE(null_cb);
}

TEST(InlineCallback, InvokesSmallCapture) {
  int hits = 0;
  InlineCallback cb([&hits] { ++hits; });
  ASSERT_TRUE(cb);
  cb();
  cb();
  EXPECT_EQ(hits, 2);
}

TEST(InlineCallback, CaptureExactlyAtBoundaryStaysInline) {
  struct Payload {
    unsigned char bytes[InlineCallback::kInlineSize - sizeof(int*)];
    int* out;
  };
  static_assert(sizeof(Payload) == InlineCallback::kInlineSize);
  int result = 0;
  Payload p{};
  p.bytes[0] = 42;
  p.out = &result;
  auto fn = [p] { *p.out = p.bytes[0]; };
  static_assert(InlineCallback::fits_inline<decltype(fn)>());

  const std::uint64_t before = allocations();
  InlineCallback cb(fn);
  cb();
  EXPECT_EQ(allocations() - before, 0u) << "boundary-sized capture must not allocate";
  EXPECT_EQ(result, 42);
}

TEST(InlineCallback, OversizedCaptureFallsBackToHeapAndStillWorks) {
  struct Big {
    unsigned char bytes[InlineCallback::kInlineSize + 8];
    int* out;
  };
  int result = 0;
  Big b{};
  b.bytes[0] = 7;
  b.out = &result;
  auto fn = [b] { *b.out = b.bytes[0]; };
  static_assert(!InlineCallback::fits_inline<decltype(fn)>());

  const std::uint64_t before = allocations();
  InlineCallback cb(fn);
  EXPECT_EQ(allocations() - before, 1u) << "oversized capture boxes exactly once";
  cb();
  EXPECT_EQ(result, 7);

  // Moving a boxed callback shuffles the pointer, not the payload.
  const std::uint64_t before_move = allocations();
  InlineCallback moved(std::move(cb));
  EXPECT_EQ(allocations() - before_move, 0u);
  EXPECT_FALSE(cb);  // NOLINT(bugprone-use-after-move): moved-from must be empty
  result = 0;
  moved();
  EXPECT_EQ(result, 7);
}

TEST(InlineCallback, MoveOnlyCapture) {
  auto value = std::make_unique<int>(99);
  int seen = 0;
  InlineCallback cb([v = std::move(value), &seen] { seen = *v; });
  InlineCallback moved(std::move(cb));
  EXPECT_FALSE(cb);  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(moved);
  moved();
  EXPECT_EQ(seen, 99);
}

TEST(InlineCallback, MoveAssignmentDestroysPreviousTarget) {
  LifeCounted::reset();
  {
    InlineCallback a([c = LifeCounted{}] { (void)c; });
    InlineCallback b([c = LifeCounted{}] { (void)c; });
    EXPECT_EQ(LifeCounted::alive(), 2);
    b = std::move(a);  // b's capture destroyed; a's relocated into b
    EXPECT_EQ(LifeCounted::alive(), 1);
    EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move)
    ASSERT_TRUE(b);
  }
  EXPECT_EQ(LifeCounted::alive(), 0) << "every construction must be matched by a destruction";
}

TEST(InlineCallback, DestructionCountsBalanceThroughMoveChains) {
  LifeCounted::reset();
  {
    InlineCallback cb([c = LifeCounted{}] { (void)c; });
    InlineCallback hop1(std::move(cb));
    InlineCallback hop2(std::move(hop1));
    hop2();
    EXPECT_EQ(LifeCounted::alive(), 1);
  }
  EXPECT_EQ(LifeCounted::alive(), 0);
}

TEST(InlineCallback, ResetDestroysExactlyOnce) {
  LifeCounted::reset();
  InlineCallback cb([c = LifeCounted{}] { (void)c; });
  EXPECT_EQ(LifeCounted::alive(), 1);
  cb.reset();
  EXPECT_FALSE(cb);
  EXPECT_EQ(LifeCounted::alive(), 0);
  cb.reset();  // idempotent
  EXPECT_EQ(LifeCounted::alive(), 0);
}

TEST(InlineCallback, TriviallyCopyableCaptureRelocatesByMemcpy) {
  // Not directly observable, but pin the dispatch-kernel assumption that
  // plain [this]-style captures are trivially relocatable and inline.
  struct Fake {
    double a;
    int b;
  };
  int out = 0;
  Fake f{1.5, 21};
  auto fn = [f, &out] { out = f.b * 2; };
  static_assert(std::is_trivially_copyable_v<decltype(fn)>);
  static_assert(InlineCallback::fits_inline<decltype(fn)>());
  InlineCallback cb(fn);
  InlineCallback moved(std::move(cb));
  moved();
  EXPECT_EQ(out, 42);
}

TEST(InlineCallback, BudgetFitsTheKernelCapturesInHalfACacheLine) {
  // 32 bytes of capture + the ops pointer: with the event queue's 24-byte
  // key and links, a slot is exactly one 64-byte line.
  static_assert(InlineCallback::kInlineSize == 32);
  static_assert(sizeof(InlineCallback) == 40);
  // The largest kernel captures: a pointer plus a 24-byte payload (the
  // redirect's PageRequest, a rate shift, a trace point).
  struct Payload24 {
    double a;
    int b;
    double c;
  };
  static_assert(sizeof(Payload24) == 24);
  int* out = nullptr;
  Payload24 p{};
  auto at_budget = [out, p] { (void)out, (void)p; };
  static_assert(sizeof(at_budget) == 32);
  static_assert(InlineCallback::fits_inline<decltype(at_budget)>());
  auto over_budget = [out, p, q = p] { (void)out, (void)p, (void)q; };
  static_assert(!InlineCallback::fits_inline<decltype(over_budget)>());
  // 16-byte alignment exceeds the 8-byte inline alignment: boxed.
  struct alignas(16) Wide {
    double v;
  };
  auto wide = [w = Wide{}] { (void)w; };
  static_assert(!InlineCallback::fits_inline<decltype(wide)>());
}

/// Callable with a prefetch hook that counts hook calls and invocations.
struct Prefetching {
  int* prefetches;
  int* calls;
  void operator()() const { ++*calls; }
  void prefetch() const { ++*prefetches; }
};

TEST(InlineCallback, PrefetchCallsTheHookOnlyWhereTheTypeDefinesIt) {
  int prefetches = 0;
  int calls = 0;
  InlineCallback with(Prefetching{&prefetches, &calls});
  with.prefetch();
  with.prefetch();
  EXPECT_EQ(prefetches, 2);
  EXPECT_EQ(calls, 0) << "prefetch must not run the callable";
  InlineCallback moved(std::move(with));
  moved.prefetch();
  moved();
  EXPECT_EQ(prefetches, 3);
  EXPECT_EQ(calls, 1);

  // No hook: prefetch() is a no-op, for a lambda and for an empty callback.
  int hits = 0;
  InlineCallback without([&hits] { ++hits; });
  without.prefetch();
  EXPECT_EQ(hits, 0);
  InlineCallback empty;
  empty.prefetch();
  EXPECT_EQ(prefetches, 3);
}

TEST(InlineCallback, PrefetchReachesABoxedCallable) {
  struct BigPrefetching {
    unsigned char pad[InlineCallback::kInlineSize];
    Prefetching inner;
    void operator()() const { inner(); }
    void prefetch() const { inner.prefetch(); }
  };
  static_assert(!InlineCallback::fits_inline<BigPrefetching>());
  int prefetches = 0;
  int calls = 0;
  InlineCallback cb(BigPrefetching{{}, {&prefetches, &calls}});
  cb.prefetch();
  EXPECT_EQ(prefetches, 1);
  EXPECT_EQ(calls, 0);
}

TEST(InlineCallback, AssertInlinePassesThrough) {
  int hits = 0;
  InlineCallback cb(assert_inline([&hits] { ++hits; }));
  cb();
  EXPECT_EQ(hits, 1);
}

}  // namespace
}  // namespace adattl::sim
