// Figure 9: per-processor I/O time distribution for one 1PFPP checkpoint
// on 16,384 processors. The metadata storm of creating 16K files in one
// directory serialises ranks: some finish within seconds, others take more
// than 300 seconds.
#include <cstdio>
#include <memory>

#include "common.hpp"
#include "simcore/stats.hpp"

using namespace bgckpt;
using namespace bgckpt::bench;

int main(int argc, char** argv) {
  bgckpt::bench::obsInit(argc, argv);
  banner("Figure 9 - I/O time distribution, 1PFPP, 16,384 processors",
         "Each point is one rank's wall-clock I/O time for one checkpoint.");

  constexpr int kNp = 16384;
  iolib::SimStackOptions opt;
  iolib::SimStack stack(kNp, opt);
  bgckpt::bench::attachObs(stack);
  prof::IoProfile profile;  // per-rank busy time needs the op records
  stack.obs.addSink(std::make_shared<prof::IoProfileSink>(profile));
  const auto r = runSim(stack, kNp, iolib::StrategyConfig::onePfpp());

  sim::Sample sample;
  std::vector<double> xs, ys;
  xs.reserve(kNp);
  ys.reserve(kNp);
  for (int rank = 0; rank < kNp; ++rank) {
    const double v = r.perRankTime[static_cast<std::size_t>(rank)];
    sample.add(v);
    if (rank % 16 == 0) {  // thin the scatter for terminal width
      xs.push_back(rank);
      ys.push_back(v);
    }
  }

  std::printf("ranks: %d   makespan: %s   bandwidth: %s\n", kNp,
              secs(r.makespan).c_str(), gbs(r.bandwidth).c_str());
  std::printf("per-rank I/O time: min %.1f s  median %.1f s  p90 %.1f s  "
              "max %.1f s\n",
              sample.min(), sample.median(), sample.quantile(0.9),
              sample.max());
  std::printf("%s", analysis::scatter(xs, ys, 72, 20, "processor rank",
                                      "I/O time [s]").c_str());

  std::vector<Check> checks;
  checks.push_back({"slowest ranks exceed 300 s (paper: 'more than 300 s')",
                    sample.max() > 300.0, secs(sample.max())});
  checks.push_back({"some ranks finish within seconds",
                    sample.min() < 10.0, secs(sample.min())});
  checks.push_back({"high variance across ranks (serialised creates spread "
                    "completions over the full storm)",
                    sample.max() > 1.3 * sample.median() &&
                        sample.quantile(0.1) < 0.5 * sample.median(),
                    secs(sample.max()) + " vs median " +
                        secs(sample.median())});
  checks.push_back({"metadata creates dominate: mean create time > 1 s",
                    stack.profile.opCount(prof::Op::kCreate) ==
                            static_cast<std::uint64_t>(kNp) &&
                        profile.perRankBusy(kNp)[100] > 1.0,
                    "16384 creates issued"});
  return reportChecks(checks);
}
