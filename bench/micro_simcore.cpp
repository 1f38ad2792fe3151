// Microbenchmarks of the discrete-event kernel: these bound how large a
// simulated machine the figure harnesses can afford.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>

#include "obs/obs.hpp"
#include "obs/telemetry.hpp"
#include "simcore/channel.hpp"
#include "simcore/random.hpp"
#include "simcore/resource.hpp"
#include "simcore/scheduler.hpp"

namespace {

using namespace bgckpt::sim;

void BM_ScheduleAndRunCallbacks(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Scheduler sched;
    int sum = 0;
    for (int i = 0; i < n; ++i)
      sched.scheduleCall(static_cast<double>(i % 97), [&sum] { ++sum; });
    sched.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ScheduleAndRunCallbacks)->Arg(1 << 12)->Arg(1 << 16);

void BM_SpawnCoroutines(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Scheduler sched;
    auto body = [](Scheduler& s) -> Task<> { co_await s.delay(1.0); };
    for (int i = 0; i < n; ++i) sched.spawn(body(sched));
    sched.run();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SpawnCoroutines)->Arg(1 << 10)->Arg(1 << 14);

void BM_PingPongChannel(benchmark::State& state) {
  const auto rounds = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Scheduler sched;
    Channel<int> ab(sched), ba(sched);
    auto ping = [](Channel<int>& out, Channel<int>& in, int n) -> Task<> {
      for (int i = 0; i < n; ++i) {
        out.push(i);
        co_await in.recv();
      }
    };
    auto pong = [](Channel<int>& in, Channel<int>& out, int n) -> Task<> {
      for (int i = 0; i < n; ++i) {
        co_await in.recv();
        out.push(i);
      }
    };
    sched.spawn(ping(ab, ba, rounds));
    sched.spawn(pong(ab, ba, rounds));
    sched.run();
  }
  state.SetItemsProcessed(state.iterations() * rounds * 2);
}
BENCHMARK(BM_PingPongChannel)->Arg(1 << 12);

void BM_ResourceContention(benchmark::State& state) {
  const auto waiters = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Scheduler sched;
    Resource res(sched, 4);
    auto body = [](Scheduler& s, Resource& r) -> Task<> {
      for (int i = 0; i < 8; ++i) {
        co_await r.acquire();
        co_await s.delay(0.001);
        r.release();
      }
    };
    for (int i = 0; i < waiters; ++i) sched.spawn(body(sched, res));
    sched.run();
  }
  state.SetItemsProcessed(state.iterations() * waiters * 8);
}
BENCHMARK(BM_ResourceContention)->Arg(256)->Arg(2048);

// Event-queue stress cases: timestamp distributions chosen to exercise each
// tier of the ladder queue (see scheduler.hpp).

void BM_QueueUniform(benchmark::State& state) {
  // Uniform spread: events flow far pool -> near ring -> dispatch.
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    RngStream rng(7, "uniform");
    state.ResumeTiming();
    Scheduler sched;
    std::uint64_t sum = 0;
    for (int i = 0; i < n; ++i)
      sched.scheduleCall(rng.uniform(0.0, 10.0), [&sum] { ++sum; });
    sched.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_QueueUniform)->Arg(1 << 16);

void BM_QueueBimodalNearFar(benchmark::State& state) {
  // Dense near-cluster plus sparse far-cluster: repeated window reseeds and
  // far-pool partition scans.
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    RngStream rng(7, "bimodal");
    state.ResumeTiming();
    Scheduler sched;
    std::uint64_t sum = 0;
    for (int i = 0; i < n; ++i) {
      const double dt = (i % 5 != 0) ? rng.uniform(0.0, 1e-5)
                                     : rng.uniform(60.0, 660.0);
      sched.scheduleCall(dt, [&sum] { ++sum; });
    }
    sched.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_QueueBimodalNearFar)->Arg(1 << 16);

void BM_QueueSelfRescheduling(benchmark::State& state) {
  // Fixed population, each process re-arms itself on dispatch: short delays
  // land in the sorted active bucket (near-heap path) at steady state.
  const auto procs = static_cast<int>(state.range(0));
  constexpr int kRounds = 64;
  for (auto _ : state) {
    Scheduler sched;
    auto body = [](Scheduler& s, int id) -> Task<> {
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
BENCHMARK(BM_QueueSelfRescheduling)->Arg(1 << 12);

void BM_QueueZeroDelayStorm(benchmark::State& state) {
  // Chains that re-arm themselves at zero delay kDepth times: the wakeup
  // cascade Resource::release / Gate::fire produce, all in the now-FIFO.
  const auto chains = static_cast<int>(state.range(0));
  constexpr int kDepth = 64;
  for (auto _ : state) {
    Scheduler sched;
    std::uint64_t sum = 0;
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
BENCHMARK(BM_QueueZeroDelayStorm)->Arg(1 << 10);

void BM_RngStream(benchmark::State& state) {
  RngStream rng(1, "bench");
  double acc = 0;
  for (auto _ : state) acc += rng.lognormal(1.0, 0.5);
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngStream);

// Zero-overhead-when-off guard: an instrumented layer's probe update must
// compile down to a predictable branch on the cached `live` flag when no
// --telemetry sink is attached. If this benchmark regresses to more than a
// few ns/op, a probe stopped being dormant-by-default.
void BM_TelemetryProbeDisabled(benchmark::State& state) {
  bgckpt::obs::Observability obs;
  auto& probe = obs.telemetry().probe("bench.gauge",
                                      bgckpt::obs::ProbeKind::kGauge, 8);
  double v = 0;
  for (auto _ : state) {
    probe.add(3, 1.0);
    probe.add(3, -1.0);
    benchmark::DoNotOptimize(v += 1.0);
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_TelemetryProbeDisabled);

// The enabled path pays bucket integration; this bounds the --telemetry
// run-time tax per probe update.
void BM_TelemetryProbeEnabled(benchmark::State& state) {
  Scheduler sched;
  bgckpt::obs::Observability obs;
  obs.telemetry().enable(sched, 0.25);
  auto& probe = obs.telemetry().probe("bench.gauge",
                                      bgckpt::obs::ProbeKind::kGauge, 8);
  for (auto _ : state) {
    probe.add(3, 1.0);
    probe.add(3, -1.0);
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_TelemetryProbeEnabled);

}  // namespace
