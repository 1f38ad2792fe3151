// Section III-B: reading the global mesh inputs (*.rea and *.map) at the
// presetup stage. "Reading the global data for a mesh takes from 7.5
// seconds to 28 seconds, with E=136K and 546K on P=32,768 and 131,072
// processors of BG/P." Rank 0 reads the global files through the
// filesystem, parses them, and broadcasts over the collective network.
#include <cstdio>

#include "common.hpp"
#include "netsim/torus.hpp"

using namespace bgckpt;
using namespace bgckpt::bench;
using sim::Task;

namespace {

// ASCII .rea + binary .map cost per element (coordinates of 8 vertices,
// curvature flags, processor mapping).
constexpr double kBytesPerElement = 500.0;
// ASCII parsing throughput on one 850 MHz BG/P core.
constexpr double kParseBytesPerSecond = 22e6;

struct MeshReadResult {
  double seconds = 0;
};

MeshReadResult simulateMeshRead(int ranks, std::uint64_t elements) {
  iolib::SimStackOptions opt;
  opt.noise = stor::NoiseModel::none();
  iolib::SimStack stack(ranks, opt);
  bgckpt::bench::attachObs(stack);
  const sim::Bytes meshBytes =
      static_cast<sim::Bytes>(static_cast<double>(elements) *
                              kBytesPerElement);
  double done = 0;

  auto program = [&stack, meshBytes, &done]() -> Task<> {
    // Presetup: rank 0 creates (writes) the inputs once out-of-band, then
    // the job reads them back through the ION path and broadcasts.
    auto fh = co_await stack.fsys.create(0, "input/mesh.rea");
    co_await stack.fsys.write(0, fh, 0, meshBytes);
    co_await stack.fsys.close(0, fh);

    const double t0 = stack.sched.now();
    auto rfh = co_await stack.fsys.open(0, "input/mesh.rea");
    co_await stack.fsys.read(0, rfh, 0, meshBytes);
    co_await stack.fsys.close(0, rfh);
    // Parse on rank 0 ...
    co_await stack.sched.delay(static_cast<double>(meshBytes) /
                               kParseBytesPerSecond);
    // ... and distribute over the tree network.
    co_await stack.sched.delay(
        stack.coll.broadcastCost(stack.mach.numRanks(), meshBytes));
    done = stack.sched.now() - t0;
  };
  const WallTimer wall;
  stack.sched.spawn(program());
  const std::uint64_t events = stack.sched.run();
  perfRecord("np=" + std::to_string(ranks) + " mesh read E=" +
                 std::to_string(elements / 1000) + "K",
             wall.seconds(), events);
  return {done};
}

}  // namespace

int main(int argc, char** argv) {
  bgckpt::bench::obsInit(argc, argv);
  banner("Section III-B - global mesh read time at presetup",
         "Rank 0 reads, parses and broadcasts the global mesh files.");

  struct Case {
    int ranks;
    std::uint64_t elements;
    double paperSeconds;
  };
  // 131,072 ranks exceeds our largest prebuilt torus table only in name;
  // the Intrepid factory supports it directly.
  const std::vector<Case> cases = {{32768, 136000, 7.5},
                                   {131072, 546000, 28.0}};

  std::vector<double> measured;
  for (const auto& c : cases) {
    const auto r = simulateMeshRead(c.ranks, c.elements);
    measured.push_back(r.seconds);
    std::printf("E=%6lluK on P=%6d: measured %6.1f s   (paper: %.1f s)\n",
                static_cast<unsigned long long>(c.elements / 1000), c.ranks,
                r.seconds, c.paperSeconds);
    std::fflush(stdout);
  }

  std::vector<Check> checks;
  checks.push_back({"small case lands in single-digit seconds (paper: 7.5 s)",
                    measured[0] > 2 && measured[0] < 15,
                    secs(measured[0])});
  checks.push_back({"large case lands in tens of seconds (paper: 28 s)",
                    measured[1] > 12 && measured[1] < 60,
                    secs(measured[1])});
  checks.push_back({"cost grows with mesh size",
                    measured[1] > 2.0 * measured[0],
                    secs(measured[1]) + " vs " + secs(measured[0])});
  checks.push_back({"read phase is negligible next to 1PFPP checkpointing "
                    "(why the paper optimises writes)",
                    measured[0] < 20.0, secs(measured[0])});
  return reportChecks(checks);
}
