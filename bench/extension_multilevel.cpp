// Extension / future work: SCR-style multilevel checkpointing on the
// "future leadership system" the paper's related-work section anticipates
// (a RAM-disk-capable compute OS, which BG/P's CNK was not). Level-1
// checkpoints go to node-local RAM disk with a torus partner mirror; every
// 4th checkpoint drains to GPFS with rbIO. SCR's authors report 14x-234x
// checkpoint speedups over a parallel filesystem for pF3D at up to 8K
// cores — this harness shows where our simulated Intrepid lands.
#include <cstdio>

#include "common.hpp"
#include "iolib/multilevel.hpp"

using namespace bgckpt;
using namespace bgckpt::bench;

int main(int argc, char** argv) {
  bgckpt::bench::obsInit(argc, argv);
  banner("Extension - SCR-style multilevel checkpointing",
         "Node-local RAM disk + partner mirror + periodic rbIO PFS drain.");

  std::vector<Check> checks;
  std::printf("\n  %8s | %12s | %12s | %14s | %10s\n", "np", "level 1",
              "PFS (rbIO)", "amortised (1:4)", "L1 speedup");
  for (int np : {16384, 32768, 65536}) {
    iolib::SimStack stack(np);
    bgckpt::bench::attachObs(stack);
    const auto spec = iolib::CheckpointSpec::nekcemWeakScaling(np);
    iolib::MultilevelConfig cfg;  // defaults: partner copy, pfsEvery = 4
    const WallTimer wall;
    const std::uint64_t events0 = stack.sched.eventsProcessed();
    const auto r = runMultilevelCheckpoint(stack, spec, cfg);
    perfRecord("np=" + std::to_string(np) + " multilevel (local + partner, " +
                   cfg.pfsStrategy.describe() + " drain)",
               wall.seconds(), stack.sched.eventsProcessed() - events0);
    std::printf("  %8d | %10.4f s | %10.2f s | %12.2f s | %9.0fx\n", np,
                r.localMakespan, r.pfsMakespan, r.amortizedSeconds,
                r.level1Speedup);
    std::fflush(stdout);
    if (np == 65536) {
      checks.push_back({"level-1 speedup in SCR's reported territory "
                        "(14x-234x ballpark, allowing our larger scale)",
                        r.level1Speedup > 14,
                        std::to_string(r.level1Speedup) + "x"});
      checks.push_back({"amortised multilevel beats PFS-only by >2x",
                        r.amortizedSpeedup > 2.0,
                        std::to_string(r.amortizedSpeedup) + "x"});
      checks.push_back({"local checkpoints complete in well under a second",
                        r.localMakespan < 0.5,
                        std::to_string(r.localMakespan) + " s"});
    }
  }
  std::printf("\nNote: level 1 alone survives process failures and (with "
              "the partner mirror)\nsingle-node loss; only multi-node "
              "failures need the PFS generation.\n");
  return reportChecks(checks);
}
