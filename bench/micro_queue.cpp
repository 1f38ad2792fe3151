// Event-queue microbenchmarks: the tiered (ladder) queue against the
// std::priority_queue reference, across the timestamp distributions that
// stress different tiers.
//
//   Uniform          every event lands in the near-ring window sizing path
//   BimodalNearFar   a near cluster plus a far cluster: exercises the far
//                    pool partition scans and window reseeding
//   SelfRescheduling a fixed population of processes that each reschedule
//                    themselves on dispatch — the steady-state shape of the
//                    figure benches; exercises the active-bucket/near-heap
//                    insert path and event-pool recycling
//   ZeroDelayStorm   chains of zero-delay wakeups — the now-FIFO tier
//
// Run with --benchmark_filter=Tiered or =Legacy to compare queue sides.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>

#include "simcore/random.hpp"
#include "simcore/scheduler.hpp"

namespace {

using namespace bgckpt::sim;

Scheduler::Config config(bool legacy, std::size_t hint) {
  Scheduler::Config cfg;
  cfg.legacyQueue = legacy;
  cfg.expectedEvents = hint;
  return cfg;
}

void runUniform(benchmark::State& state, bool legacy) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    RngStream rng(7, "uniform");
    state.ResumeTiming();
    Scheduler sched(config(legacy, static_cast<std::size_t>(n)));
    std::uint64_t sum = 0;
    for (int i = 0; i < n; ++i)
      sched.scheduleCall(rng.uniform(0.0, 10.0), [&sum] { ++sum; });
    sched.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
void BM_Uniform_Tiered(benchmark::State& s) { runUniform(s, false); }
void BM_Uniform_Legacy(benchmark::State& s) { runUniform(s, true); }
BENCHMARK(BM_Uniform_Tiered)->Arg(1 << 16);
BENCHMARK(BM_Uniform_Legacy)->Arg(1 << 16);

void runBimodal(benchmark::State& state, bool legacy) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    RngStream rng(7, "bimodal");
    state.ResumeTiming();
    Scheduler sched(config(legacy, static_cast<std::size_t>(n)));
    std::uint64_t sum = 0;
    for (int i = 0; i < n; ++i) {
      // 80% of events within microseconds, 20% whole minutes out — the
      // shape of a checkpoint: dense I/O traffic plus long compute delays.
      const double dt = (i % 5 != 0) ? rng.uniform(0.0, 1e-5)
                                     : rng.uniform(60.0, 660.0);
      sched.scheduleCall(dt, [&sum] { ++sum; });
    }
    sched.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
void BM_BimodalNearFar_Tiered(benchmark::State& s) { runBimodal(s, false); }
void BM_BimodalNearFar_Legacy(benchmark::State& s) { runBimodal(s, true); }
BENCHMARK(BM_BimodalNearFar_Tiered)->Arg(1 << 16);
BENCHMARK(BM_BimodalNearFar_Legacy)->Arg(1 << 16);

void runSelfRescheduling(benchmark::State& state, bool legacy) {
  const auto procs = static_cast<int>(state.range(0));
  constexpr int kRounds = 64;
  for (auto _ : state) {
    Scheduler sched(config(legacy, static_cast<std::size_t>(procs)));
    auto body = [](Scheduler& s, int id) -> Task<> {
      // Deterministic per-process jitter keeps timestamps interleaved
      // without consuming RNG (identical work on both queue sides).
      double dt = 1e-6 * static_cast<double>(1 + id % 17);
      for (int r = 0; r < kRounds; ++r) {
        co_await s.delay(dt);
        dt = dt * 1.1 + 1e-7;
      }
    };
    for (int p = 0; p < procs; ++p) sched.spawn(body(sched, p));
    sched.run();
  }
  state.SetItemsProcessed(state.iterations() * procs * kRounds);
}
void BM_SelfRescheduling_Tiered(benchmark::State& s) {
  runSelfRescheduling(s, false);
}
void BM_SelfRescheduling_Legacy(benchmark::State& s) {
  runSelfRescheduling(s, true);
}
BENCHMARK(BM_SelfRescheduling_Tiered)->Arg(1 << 12);
BENCHMARK(BM_SelfRescheduling_Legacy)->Arg(1 << 12);

void runZeroDelayStorm(benchmark::State& state, bool legacy) {
  const auto chains = static_cast<int>(state.range(0));
  constexpr int kDepth = 64;
  for (auto _ : state) {
    Scheduler sched(config(legacy, static_cast<std::size_t>(chains)));
    std::uint64_t sum = 0;
    // Each chain re-arms itself at zero delay kDepth times: the wakeup
    // cascade Resource::release / Gate::fire produce.
    std::function<void(int)> arm = [&](int remaining) {
      ++sum;
      if (remaining > 0) sched.scheduleCall(0.0, [&arm, remaining] {
        arm(remaining - 1);
      });
    };
    for (int c = 0; c < chains; ++c)
      sched.scheduleCall(0.0, [&arm] { arm(kDepth - 1); });
    sched.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * chains * kDepth);
}
void BM_ZeroDelayStorm_Tiered(benchmark::State& s) {
  runZeroDelayStorm(s, false);
}
void BM_ZeroDelayStorm_Legacy(benchmark::State& s) {
  runZeroDelayStorm(s, true);
}
BENCHMARK(BM_ZeroDelayStorm_Tiered)->Arg(1 << 10);
BENCHMARK(BM_ZeroDelayStorm_Legacy)->Arg(1 << 10);

}  // namespace
