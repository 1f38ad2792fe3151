// Figure 12: Darshan-style write-activity analysis of rbIO (nf = ng, top)
// vs coIO (np:nf = 64:1, bottom) in the 32K-processor case: how many
// processes are actively writing in each time slice. rbIO's independent
// writers stream continuously; coIO's field-synchronised rounds leave lock
// and synchronisation gaps.
#include <cstdio>
#include <memory>

#include "common.hpp"
#include "profiling/report.hpp"

using namespace bgckpt;
using namespace bgckpt::bench;

int main(int argc, char** argv) {
  bgckpt::bench::obsInit(argc, argv);
  banner("Figure 12 - write activity: rbIO (top) vs coIO 64:1 (bottom)",
         "32,768 processors; column shade = processes in a write call.");

  constexpr int kNp = 32768;
  // The timelines need every write's interval, so each stack feeds an
  // IoProfile; the write counts and op table come from stack.profile.
  prof::IoProfile rbProfile;
  prof::IoProfile coProfile;
  iolib::SimStack rbStack(kNp);
  bench::attachObs(rbStack);
  rbStack.obs.addSink(std::make_shared<prof::IoProfileSink>(rbProfile));
  const auto rb = runSim(rbStack, kNp, iolib::StrategyConfig::rbIo(64, true));
  iolib::SimStack coStack(kNp);
  bench::attachObs(coStack);
  coStack.obs.addSink(std::make_shared<prof::IoProfileSink>(coProfile));
  const auto co = runSim(coStack, kNp, iolib::StrategyConfig::coIo(kNp / 64));

  const double horizon = std::max(rb.makespan, co.makespan);
  const int bins = 64;
  const double binW = horizon / bins;
  auto rbLine = rbProfile.activityTimeline(prof::Op::kWrite, binW, horizon);
  auto coLine = coProfile.activityTimeline(prof::Op::kWrite, binW, horizon);

  std::printf("rbIO nf=ng : makespan %s, %llu write calls\n",
              secs(rb.makespan).c_str(),
              static_cast<unsigned long long>(
                  rbStack.profile.opCount(prof::Op::kWrite)));
  std::printf("coIO 64:1  : makespan %s, %llu write calls\n",
              secs(co.makespan).c_str(),
              static_cast<unsigned long long>(
                  coStack.profile.opCount(prof::Op::kWrite)));
  std::printf("%s", analysis::activityStrip({"rbIO nf=ng", "coIO 64:1 "},
                                            {rbLine, coLine}, binW)
                        .c_str());

  // Utilisation: fraction of the strategy's own makespan during which at
  // least one writer is active, and mean writer concurrency while active.
  auto stats = [&](const std::vector<int>& line, double makespan) {
    int active = 0;
    long total = 0;
    const int ownBins = static_cast<int>(makespan / binW);
    for (int b = 0; b < ownBins && b < static_cast<int>(line.size()); ++b) {
      if (line[static_cast<std::size_t>(b)] > 0) ++active;
      total += line[static_cast<std::size_t>(b)];
    }
    return std::pair<double, double>(
        static_cast<double>(active) / std::max(1, ownBins),
        static_cast<double>(total) / std::max(1, active));
  };
  // The Darshan-style op summary for the rbIO run (what the paper's log
  // analysis looked at).
  std::printf("\n%s", prof::renderOpTable(rbStack.profile).c_str());

  const auto [rbUtil, rbConc] = stats(rbLine, rb.makespan);
  const auto [coUtil, coConc] = stats(coLine, co.makespan);
  std::printf("rbIO: writing in %.0f%% of its slices, ~%.0f writers active\n",
              rbUtil * 100, rbConc);
  std::printf("coIO: writing in %.0f%% of its slices, ~%.0f writers active\n",
              coUtil * 100, coConc);

  std::vector<Check> checks;
  checks.push_back({"raw performance not significantly different "
                    "(paper: 'not significantly different')",
                    rb.bandwidth < 2.5 * co.bandwidth &&
                        co.bandwidth < 2.5 * rb.bandwidth,
                    gbs(rb.bandwidth) + " vs " + gbs(co.bandwidth)});
  checks.push_back({"rbIO writers stay busy through their window",
                    rbUtil > 0.9, std::to_string(rbUtil * 100) + "%"});
  checks.push_back({"coIO involves far more writing processes",
                    coConc > 1.5 * rbConc,
                    std::to_string(coConc) + " vs " + std::to_string(rbConc)});
  return reportChecks(checks);
}
