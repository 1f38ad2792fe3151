#include "iolib/stack.hpp"

#include <algorithm>
#include <iostream>
#include <stdexcept>

namespace bgckpt::iolib {

namespace {

sim::Scheduler::Config schedConfig(int numRanks) {
  // Steady state holds a few queued events per rank (a pending delay or
  // wakeup each for the rank program, its sends, and the I/O path).
  sim::Scheduler::Config cfg;
  cfg.expectedEvents = static_cast<std::size_t>(numRanks) * 4 + 1024;
  return cfg;
}

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
    : sched(schedConfig(numRanks)),
      checker(makeChecker(options.simcheck)),
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
  if (options.flightRecorderEvents > 0) {
    flightRecorder = obs::FlightRecorder::create(options.flightRecorderEvents);
    obs.addSink(flightRecorder);
  }
  if (checker) {
    checker->attach(sched);
    // Mirror violations into the metrics registry and the scheduler-layer
    // counter stream so they land next to the run they corrupted in any
    // exported trace. The stderr report still happens inside the checker.
    // A violation also dumps the flight recorder(s): the last events per
    // layer, attributed, right next to the report that aborts the run.
    auto& count = obs.metrics().counter("simcheck.violations");
    checker->setReportFn([this, &count](const sim::SimChecker::Violation& v) {
      count.add();
      obs.counterSample(obs::Layer::kScheduler, "simcheck.violation", v.time,
                        static_cast<double>(count.value()));
      if (flightRecorder) flightRecorder->dump(std::cerr);
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
