// Extension: the end-to-end production experiment behind Eq. (1) and the
// abstract's "25x production performance improvement", measured directly
// rather than composed — a full campaign of compute steps with checkpoints
// every nc steps, on 16,384 simulated ranks. rbIO's dedicated writers
// drain checkpoints concurrently with computation, so its I/O cost only
// surfaces when the cadence outpaces the writers.
#include <cstdio>
#include <string>

#include "common.hpp"
#include "iolib/campaign.hpp"
#include "nekcem/perf_model.hpp"

using namespace bgckpt;
using namespace bgckpt::bench;

int main(int argc, char** argv) {
  bgckpt::bench::obsInit(argc, argv);
  const int np = 16384;
  banner("Production campaign - end-to-end Eq. (1), measured directly",
         "60 compute steps, checkpoint every 20, 16,384 ranks.");

  nekcem::PerfModel perf;
  const auto spec = iolib::CheckpointSpec::nekcemWeakScaling(np);
  iolib::CampaignConfig base;
  base.steps = 60;
  base.checkpointEvery = 20;
  base.computeStepSeconds = perf.weakScalingStepSeconds();

  struct Row {
    const char* name;
    iolib::StrategyConfig strategy;
    iolib::CampaignResult result;
  };
  std::vector<Row> rows = {
      {"1PFPP", iolib::StrategyConfig::onePfpp(), {}},
      {"coIO 64:1", iolib::StrategyConfig::coIo(np / 64), {}},
      {"rbIO 64:1 nf=ng", iolib::StrategyConfig::rbIo(64, true), {}},
  };
  std::printf("\ncompute-only time: %.1f s (%d steps x %.3f s)\n",
              base.steps * base.computeStepSeconds, base.steps,
              base.computeStepSeconds);
  std::printf("\n  %-16s | %10s | %12s | %10s\n", "strategy", "total",
              "I/O overhead", "% overhead");
  for (auto& row : rows) {
    iolib::CampaignConfig cfg = base;
    cfg.strategy = row.strategy;
    iolib::SimStack stack(np);
    bgckpt::bench::attachObs(stack);
    WallTimer timer;
    row.result = iolib::runCampaign(stack, spec, cfg);
    perfRecord(std::string("np=") + std::to_string(np) + " campaign " +
                   row.name,
               timer.seconds(), stack.sched.eventsProcessed());
    std::printf("  %-16s | %8.1f s | %10.1f s | %9.1f%%\n", row.name,
                row.result.totalSeconds, row.result.ioOverheadSeconds,
                100.0 * row.result.ioOverheadSeconds /
                    row.result.totalSeconds);
    std::fflush(stdout);
  }
  const double vsPfpp = rows[2].result.improvementOver(rows[0].result);
  const double vsCoIo = rows[2].result.improvementOver(rows[1].result);
  std::printf("\nrbIO end-to-end improvement: %.1fx over 1PFPP, %.2fx over "
              "coIO 64:1\n",
              vsPfpp, vsCoIo);

  std::vector<Check> checks;
  // At 16K with nc=20 the writer drain (~5 s) slightly exceeds the cadence
  // (~4.4 s), so writers trail the computation — the paper's own caveat
  // that writers must "flush their I/O requests roughly in the time
  // between writes". The overhead must still be far below the blocking
  // strategies'.
  checks.push_back({"rbIO campaign overhead modest (<40%) and below coIO's",
                    rows[2].result.ioOverheadSeconds <
                            0.4 * rows[2].result.totalSeconds &&
                        rows[2].result.ioOverheadSeconds <
                            rows[1].result.ioOverheadSeconds,
                    std::to_string(100.0 * rows[2].result.ioOverheadSeconds /
                                   rows[2].result.totalSeconds) +
                        "%"});
  checks.push_back({"1PFPP campaign is dominated by I/O (>80% overhead)",
                    rows[0].result.ioOverheadSeconds >
                        0.8 * rows[0].result.totalSeconds,
                    std::to_string(rows[0].result.ioOverheadSeconds) + " s"});
  checks.push_back({"tens-of-x end-to-end improvement over 1PFPP "
                    "(paper: ~25x)",
                    vsPfpp > 10 && vsPfpp < 300,
                    std::to_string(vsPfpp) + "x"});
  checks.push_back({"rbIO also beats blocking coIO end to end",
                    vsCoIo > 1.0, std::to_string(vsCoIo) + "x"});
  return reportChecks(checks);
}
