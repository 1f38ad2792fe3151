// Extension: strong scaling of the raw write path. The authors' earlier
// study (Fu et al., LSPP/IPDPS 2010, reference [3]) ran "an extensive
// amount of strong scaling tests" to find the best raw bandwidth; the
// CLUSTER'11 paper then applied those optima in weak scaling. Here the
// checkpoint volume is pinned to the 16K-rank problem (~39 GB) while the
// partition grows — per-rank data shrinks, so fixed per-rank overheads and
// metadata costs erode the gains differently per strategy.
#include <cstdio>

#include "common.hpp"

using namespace bgckpt;
using namespace bgckpt::bench;

int main(int argc, char** argv) {
  bgckpt::bench::obsInit(argc, argv);
  banner("Extension - strong scaling at fixed ~39 GB checkpoint volume",
         "The reference-[3] methodology on the simulated Intrepid.");

  // Fixed total volume: 16384 * 2.4 MB. Per-rank size shrinks with np.
  const double totalBytes = 16384.0 * 2'400'000.0;

  struct Cell {
    double bandwidth = 0;
  };
  std::vector<int> scales = {16384, 32768, 65536};
  std::map<std::string, std::map<int, Cell>> grid;

  for (int np : scales) {
    iolib::CheckpointSpec spec;
    spec.numFields = 10;
    spec.fieldBytesPerRank =
        static_cast<sim::Bytes>(totalBytes / np / spec.numFields);
    std::printf("\n-- np = %d (%.2f MB per rank) --\n", np,
                static_cast<double>(spec.bytesPerRank()) / 1e6);
    struct V {
      const char* name;
      iolib::StrategyConfig cfg;
    };
    for (const auto& v : std::vector<V>{
             {"coIO 64:1", iolib::StrategyConfig::coIo(np / 64)},
             {"rbIO 64:1 nf=ng", iolib::StrategyConfig::rbIo(64, true)},
             {"rbIO nf=1024", iolib::StrategyConfig::rbIo(np / 1024, true)},
         }) {
      iolib::SimStack stack(np);
      bgckpt::bench::attachObs(stack);
      const WallTimer wall;
      const std::uint64_t events0 = stack.sched.eventsProcessed();
      const auto r = iolib::runCheckpoint(stack, spec, v.cfg);
      perfRecord("np=" + std::to_string(np) + " " + v.cfg.describe() +
                     " (strong scaling)",
                 wall.seconds(), stack.sched.eventsProcessed() - events0);
      grid[v.name][np] = {r.bandwidth};
      std::printf("  %-16s %8s (makespan %s)\n", v.name,
                  gbs(r.bandwidth).c_str(), secs(r.makespan).c_str());
      std::fflush(stdout);
    }
  }

  std::vector<Check> checks;
  // Holding nf at the Fig. 8 optimum (1024) keeps strong scaling flat-to-
  // rising; letting nf grow with np (64:1) eventually overshoots it.
  const auto& tuned = grid.at("rbIO nf=1024");
  checks.push_back(
      {"tuned rbIO (nf=1024) holds its bandwidth under strong scaling",
       tuned.at(65536).bandwidth > 0.75 * tuned.at(16384).bandwidth,
       gbs(tuned.at(65536).bandwidth) + " vs " +
           gbs(tuned.at(16384).bandwidth)});
  const auto& ratio64 = grid.at("rbIO 64:1 nf=ng");
  checks.push_back(
      {"fixed-ratio rbIO (64:1) falls behind the tuned nf at 64K "
       "(nf=1024 is the machine's sweet spot, not a ratio)",
       tuned.at(65536).bandwidth >= 0.95 * ratio64.at(65536).bandwidth,
       gbs(tuned.at(65536).bandwidth) + " vs " +
           gbs(ratio64.at(65536).bandwidth)});
  checks.push_back(
      {"fixed-ratio rbIO climbs toward the optimum as its nf approaches "
       "1024 (256 -> 512 -> 1024 files)",
       ratio64.at(16384).bandwidth < ratio64.at(32768).bandwidth &&
           ratio64.at(32768).bandwidth < ratio64.at(65536).bandwidth,
       gbs(ratio64.at(16384).bandwidth) + " -> " +
           gbs(ratio64.at(65536).bandwidth)});
  // NB: with only ~0.6 MB per rank, blocking coIO 64:1 is competitive —
  // rbIO's advantage is a *weak-scaling* phenomenon (Fig. 5), where per-
  // rank volume stays constant and writer streams saturate the system.
  checks.push_back(
      {"all tuned approaches stay within 1.5x of each other at 64K "
       "(small per-rank volumes blur the strategy gap)",
       grid.at("coIO 64:1").at(65536).bandwidth <
           1.5 * ratio64.at(65536).bandwidth,
       gbs(grid.at("coIO 64:1").at(65536).bandwidth) + " vs " +
           gbs(ratio64.at(65536).bandwidth)});
  return reportChecks(checks);
}
