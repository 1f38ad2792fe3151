// I/O profile report: run one simulated checkpoint and print the
// Darshan-style job summary — the kind of log analysis the paper uses in
// Section V to verify its tuning ("examining I/O log data from both user
// profiling and system profiling").
//
//   $ ./darshan_report [ranks] [strategy]
//     strategy: 1pfpp | coio | rbio (default rbio)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "iolib/strategies.hpp"
#include "profiling/report.hpp"

using namespace bgckpt;

int main(int argc, char** argv) {
  const int np = argc > 1 ? std::atoi(argv[1]) : 4096;
  const std::string which = argc > 2 ? argv[2] : "rbio";

  iolib::StrategyConfig cfg;
  if (which == "1pfpp") {
    cfg = iolib::StrategyConfig::onePfpp();
  } else if (which == "coio") {
    cfg = iolib::StrategyConfig::coIo(np / 64);
  } else {
    cfg = iolib::StrategyConfig::rbIo(64, true);
  }

  iolib::SimStack stack(np);
  prof::IoProfile profile;
  stack.obs.addSink(std::make_shared<prof::IoProfileSink>(profile));
  const auto spec = iolib::CheckpointSpec::nekcemWeakScaling(np);
  std::printf("running %s on %d simulated ranks...\n",
              cfg.describe().c_str(), np);
  const auto result = runCheckpoint(stack, spec, cfg);
  std::printf("checkpoint took %.2f s at %.2f GB/s\n\n", result.makespan,
              result.bandwidth / 1e9);

  prof::ReportOptions opt;
  opt.numRanks = np;
  opt.jobName = cfg.describe();
  opt.slowestRanksShown = 8;
  std::printf("%s", prof::renderReport(profile, opt).c_str());

  // The write-activity strip, as in Fig. 12.
  const int bins = 64;
  auto line = profile.activityTimeline(prof::Op::kWrite,
                                      result.makespan / bins, result.makespan);
  std::printf("\nwrite activity over time (64 slices):\n  |");
  int maxed = 1;
  for (int v : line) maxed = std::max(maxed, v);
  static const char kShades[] = " .:-=+*#%@";
  for (int v : line)
    std::putchar(kShades[v == 0 ? 0 : 1 + 8 * (v - 1) / std::max(1, maxed - 1)]);
  std::printf("|\n  (peak: %d processes writing concurrently)\n", maxed);
  return 0;
}
