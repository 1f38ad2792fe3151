// The full figure-5 stack is deterministic: a 16K-rank rbIO nf=ng
// checkpoint dispatches exactly the event count golden.py recorded for the
// same scenario of the paper suite (bench/golden/paper.events),
// and a repeat run reproduces every result bit for bit. Any drift here
// means the event queue reordered equal-time events or a layer gained or
// lost work, and every figure in the paper reproduction silently changed.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>

#include "iolib/stack.hpp"
#include "iolib/strategies.hpp"

#ifndef BGCKPT_GOLDEN_DIR
#error "BGCKPT_GOLDEN_DIR must be defined by the build"
#endif

namespace bgckpt {
namespace {

constexpr int kNp = 16384;

struct StackOutcome {
  std::uint64_t events;
  double finalTime;
  double bandwidth;
  double makespan;
};

StackOutcome runFig5Stack(const iolib::StrategyConfig& cfg) {
  iolib::SimStack stack(kNp);  // default options == the figure benches
  const auto spec = iolib::CheckpointSpec::nekcemWeakScaling(kNp);
  const std::uint64_t events0 = stack.sched.eventsProcessed();
  const auto r = runCheckpoint(stack, spec, cfg);
  return {stack.sched.eventsProcessed() - events0, stack.sched.now(),
          r.bandwidth, r.makespan};
}

/// The events golden.py recorded for the first line labelled `label` in
/// `file` ("<events>\t<label>" lines), or 0 when no line carries it.
std::uint64_t goldenEvents(const char* file, const std::string& label) {
  std::ifstream in(std::string(BGCKPT_GOLDEN_DIR) + "/" + file);
  std::string line;
  while (std::getline(in, line)) {
    const auto tab = line.find('\t');
    if (tab != std::string::npos && line.substr(tab + 1) == label)
      return std::stoull(line.substr(0, tab));
  }
  return 0;
}

TEST(Determinism, Fig5StackMatchesItsGoldenAndARepeatRun) {
  const auto cfg = iolib::StrategyConfig::rbIo(64, true);
  // The label the paper driver gives this scenario in its --perf-json
  // record. Its first line is the default stack's: scenarios are recorded
  // in table order within each np, and Fig. 5 comes first.
  const std::string label = "np=" + std::to_string(kNp) + " " + cfg.describe();
  const std::uint64_t golden = goldenEvents("paper.events", label);
  ASSERT_GT(golden, 0u) << "no golden line for \"" << label << "\"";

  const auto a = runFig5Stack(cfg);
  const auto b = runFig5Stack(cfg);
  EXPECT_EQ(a.events, golden);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.finalTime, b.finalTime);  // bit-identical, no EQ_NEAR
  EXPECT_EQ(a.bandwidth, b.bandwidth);
  EXPECT_EQ(a.makespan, b.makespan);
}

}  // namespace
}  // namespace bgckpt
