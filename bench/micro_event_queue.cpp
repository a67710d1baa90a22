// Micro-benchmarks of the discrete-event kernel: the event queue is the
// hot path of every simulation (two queue ops per page request).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace {

using adattl::sim::EventHandle;
using adattl::sim::EventQueue;
using adattl::sim::RngStream;
using adattl::sim::Simulator;

void BM_SchedulePop(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  RngStream rng(1);
  std::vector<double> times(static_cast<std::size_t>(n));
  for (double& t : times) t = rng.uniform(0.0, 1e6);
  for (auto _ : state) {
    EventQueue q;
    for (double t : times) q.schedule(t, [] {});
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SchedulePop)->Arg(1000)->Arg(10000)->Arg(100000);

// The simulation's actual access pattern: a queue holding ~#clients
// events where each pop schedules a successor. With `outlier`, one extra
// event waits at t = 1e9 (a fault window or trace point far past the run)
// for the whole benchmark.
void churn(benchmark::State& state, bool outlier) {
  const int resident = static_cast<int>(state.range(0));
  RngStream rng(2);
  EventQueue q;
  double now = 0.0;
  if (outlier) q.schedule(1e9, [] {});
  for (int i = 0; i < resident; ++i) q.schedule(rng.uniform(0.0, 30.0), [] {});
  for (auto _ : state) {
    auto [t, cb] = q.pop();
    now = t;
    q.schedule(now + rng.exponential(15.0), [] {});
  }
  state.SetItemsProcessed(state.iterations());
}

// 500 and 5000 residents stay in cache; 100k and 1M show the falloff of
// large runs (a 500k-client scale run holds ~200k events per shard).
void BM_SteadyStateChurn(benchmark::State& state) { churn(state, false); }
BENCHMARK(BM_SteadyStateChurn)->Arg(500)->Arg(5000)->Arg(100000)->Arg(1000000);

void BM_SteadyStateChurnOutlier(benchmark::State& state) { churn(state, true); }
BENCHMARK(BM_SteadyStateChurnOutlier)->Arg(5000)->Arg(100000)->Arg(1000000);

// The client pool's shape at scale: every event is a {record table, index}
// wake-up that reads and writes its client's 128-byte record and then
// schedules the client's next wake-up, so each event's record is a cold
// line once the table outgrows the cache. With kPrefetch the callable
// defines the queue's prefetch hook, which starts that miss a few events
// early; without it the miss is taken when the event runs.
struct alignas(64) ClientRecord {
  double fields[16];
};
static_assert(sizeof(ClientRecord) == 128);

struct RecordTable {
  std::vector<ClientRecord> recs;
  std::uint32_t last = 0;  // index of the record touched last
};

template <bool kPrefetch>
struct RecordWake {
  RecordTable* table;
  std::uint32_t i;
  void operator()() const {
    ClientRecord& r = table->recs[i];
    r.fields[0] += 1.0;
    r.fields[15] += r.fields[0];
    table->last = i;
  }
  void prefetch() const
    requires kPrefetch
  {
    const auto* p = reinterpret_cast<const char*>(&table->recs[i]);
    __builtin_prefetch(p);
    __builtin_prefetch(p + 64);
  }
};

template <bool kPrefetch>
void record_hold(benchmark::State& state) {
  const auto resident = static_cast<std::uint32_t>(state.range(0));
  RngStream rng(4);
  RecordTable table{std::vector<ClientRecord>(resident), 0};
  EventQueue q;
  q.reserve(resident);
  for (std::uint32_t i = 0; i < resident; ++i) {
    q.schedule(rng.uniform(0.0, 30.0), RecordWake<kPrefetch>{&table, i});
  }
  for (auto _ : state) {
    auto [t, cb] = q.pop();
    cb();
    q.schedule(t + rng.exponential(15.0), RecordWake<kPrefetch>{&table, table.last});
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_RecordHold(benchmark::State& state) { record_hold<false>(state); }
BENCHMARK(BM_RecordHold)->Arg(5000)->Arg(100000)->Arg(1000000);

void BM_RecordHoldPrefetch(benchmark::State& state) { record_hold<true>(state); }
BENCHMARK(BM_RecordHoldPrefetch)->Arg(5000)->Arg(100000)->Arg(1000000);

void BM_CancelHeavy(benchmark::State& state) {
  // TTL-expiry style workloads cancel many events before they fire.
  RngStream rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    EventQueue q;
    std::vector<EventHandle> handles;
    handles.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
      handles.push_back(q.schedule(rng.uniform(0.0, 1e4), [] {}));
    }
    state.ResumeTiming();
    for (std::size_t i = 0; i < handles.size(); i += 2) q.cancel(handles[i]);
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
}
BENCHMARK(BM_CancelHeavy);

void BM_SimulatorDispatch(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    int chain = 0;
    std::function<void()> step = [&] {
      if (++chain < 100000) sim.after(1.0, step);
    };
    sim.at(0.0, step);
    sim.run();
    benchmark::DoNotOptimize(chain);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_SimulatorDispatch);

}  // namespace
