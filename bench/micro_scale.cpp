// Population-scale throughput: events/sec as the client population grows
// 5k → 1M via the --scale knob (clients and capacity together, so the
// per-client load — and thus events per client per simulated second — is
// invariant and the sweep isolates the kernel + pool scaling behavior).
//
// BM_ScaleClients runs the domain-sharded mode (the intended vehicle for
// large populations); BM_ScaleClientsSerial keeps two unsharded reference
// points. BM_MillionClientDay is the headline: one million clients
// through a multi-hour simulated day, end to end.
#include <benchmark/benchmark.h>

#include "experiment/site.h"

namespace {

using namespace adattl;

experiment::SimulationConfig scale_config(std::int64_t clients, double warmup,
                                          double duration) {
  experiment::SimulationConfig cfg;
  cfg.cluster = web::table2_cluster(35);
  cfg.policy = "DRR2-TTL/S_K";
  cfg.warmup_sec = warmup;
  cfg.duration_sec = duration;
  cfg.seed = 4242;
  cfg.scale = static_cast<double>(clients) / cfg.total_clients;
  return cfg;
}

void BM_ScaleClients(benchmark::State& state) {
  const std::int64_t clients = state.range(0);
  std::uint64_t events = 0;
  double simulated = 0.0;
  for (auto _ : state) {
    experiment::SimulationConfig cfg = scale_config(clients, 60.0, 240.0);
    cfg.shard_domains = true;
    cfg.shard_count = 4;
    experiment::Site site(cfg);
    const experiment::RunResult r = site.run();
    events += r.events_dispatched;
    simulated += cfg.warmup_sec + cfg.duration_sec;
    benchmark::DoNotOptimize(r.prob_below_098);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["clients"] = static_cast<double>(clients);
  state.counters["sim_sec_per_iter"] = simulated / static_cast<double>(state.iterations());
}
BENCHMARK(BM_ScaleClients)
    ->Arg(5000)
    ->Arg(50000)
    ->Arg(500000)
    ->Arg(1000000)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_ScaleClientsSerial(benchmark::State& state) {
  const std::int64_t clients = state.range(0);
  std::uint64_t events = 0;
  for (auto _ : state) {
    experiment::Site site(scale_config(clients, 60.0, 240.0));
    const experiment::RunResult r = site.run();
    events += r.events_dispatched;
    benchmark::DoNotOptimize(r.prob_below_098);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["clients"] = static_cast<double>(clients);
}
BENCHMARK(BM_ScaleClientsSerial)
    ->Arg(5000)
    ->Arg(50000)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_MillionClientDay(benchmark::State& state) {
  // One million clients through a 4-hour measured day (plus 10 min
  // warm-up) — the scale target this PR exists for. A single iteration:
  // the run itself is the statistic.
  std::uint64_t events = 0;
  for (auto _ : state) {
    experiment::SimulationConfig cfg = scale_config(1000000, 600.0, 14400.0);
    cfg.shard_domains = true;
    cfg.shard_count = 4;
    experiment::Site site(cfg);
    const experiment::RunResult r = site.run();
    events += r.events_dispatched;
    benchmark::DoNotOptimize(r.prob_below_098);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["clients"] = 1000000.0;
  state.counters["sim_hours"] = 15000.0 / 3600.0;
}
BENCHMARK(BM_MillionClientDay)->Iterations(1)->Unit(benchmark::kSecond);

}  // namespace
