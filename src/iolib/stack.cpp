#include "iolib/stack.hpp"

#include <algorithm>
#include <stdexcept>

namespace bgckpt::iolib {

namespace {

std::unique_ptr<sim::SimChecker> makeChecker(sim::SimCheckMode mode) {
  if (mode == sim::SimCheckMode::kAuto) mode = sim::simCheckModeFromEnv();
  if (mode == sim::SimCheckMode::kAuto) {
#ifdef NDEBUG
    return nullptr;
#else
    mode = sim::SimCheckMode::kOn;
#endif
  }
  if (mode == sim::SimCheckMode::kOff) return nullptr;
  sim::SimChecker::Config cfg;
  cfg.abortOnViolation = mode != sim::SimCheckMode::kWarn;
  return std::make_unique<sim::SimChecker>(cfg);
}

}  // namespace

SimStack::SimStack(int numRanks, SimStackOptions options)
    : checker(makeChecker(options.simcheck)),
      mach(machine::intrepidMachine(numRanks)),
      torus(sched, mach, &obs),
      coll(mach),
      ion(sched, mach, &obs),
      fabric(sched, mach, options.seed, options.noise,
             options.fsConfig.serverConcurrency, &obs),
      fsys(sched, mach, ion, fabric, options.seed, options.fsConfig, &obs),
      rt(sched, mach, torus, coll, options.seed, &obs),
      seed(options.seed) {
  // The op counts ride the kIo event stream like any other sink, so
  // strategy code records each op exactly once.
  obs.addSink(std::make_shared<prof::IoCountsSink>(profile));
  obs.observeScheduler(sched);
  if (checker) {
    checker->attach(sched);
    // Mirror violations into the metrics registry and the scheduler-layer
    // counter stream so they land next to the run they corrupted in any
    // exported trace, then flush every sink: a fatal violation aborts right
    // after this, and the trace on disk must already end at it. The stderr
    // report still happens inside the checker.
    auto& count = obs.metrics().counter("simcheck.violations");
    checker->setReportFn([this, &count](const sim::SimChecker::Violation& v) {
      count.add();
      obs.counterSample(obs::Layer::kScheduler, "simcheck.violation", v.time,
                        static_cast<double>(count.value()));
      obs.flush();
    });
  }
}

SimStack::~SimStack() {
  // Finalize while every layer (and obs, which the report mirror captures)
  // is still alive: frame-leak and hazard summaries attribute correctly,
  // and the mirror cannot dangle during member teardown afterwards.
  if (checker) {
    checker->finalize();
    checker->setReportFn({});
  }
}

double runRanks(SimStack& stack, const char* what,
                std::function<sim::Task<>(mpi::Comm)> program,
                const std::vector<double>& perRank) {
  stack.rt.spawnAll(std::move(program));
  stack.sched.run();
  if (stack.sched.liveRoots() != 0)
    throw std::runtime_error(std::string(what) + " deadlocked");
  return *std::max_element(perRank.begin(), perRank.end());
}

}  // namespace bgckpt::iolib
