// Waveguide with checkpoint/restart: the paper's production scenario in
// miniature. A plane wave propagates through a periodic guide under the
// mini SEDG Maxwell solver; every k steps the state is checkpointed with
// rbIO; the run is then "killed" and restarted from the latest checkpoint,
// and the resumed trajectory is verified bit-for-bit against an unbroken
// reference run.
//
//   $ ./waveguide_checkpoint [steps] [checkpoint-every]
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "hostio/solver_io.hpp"

using namespace bgckpt;
using nekcem::Boundary;
using nekcem::BoxMesh;
using nekcem::MaxwellSolver;

int main(int argc, char** argv) {
  const int totalSteps = argc > 1 ? std::atoi(argv[1]) : 40;
  const int ckptEvery = argc > 2 ? std::atoi(argv[2]) : 10;
  const std::string dir =
      (std::filesystem::temp_directory_path() / "bgckpt_waveguide").string();
  std::filesystem::remove_all(dir);

  constexpr int kRanks = 8;  // logical MPI ranks (element partitions)
  BoxMesh guide(4, 2, 2, 2.0, 1.0, 1.0, Boundary::kPeriodic);
  const int order = 5;

  std::printf("waveguide: %d elements, order %d (%zu grid points), "
              "%d logical ranks\n",
              guide.numElements(), order,
              MaxwellSolver(guide, order).gridPoints(), kRanks);

  // Reference run: no interruption.
  MaxwellSolver reference(guide, order);
  reference.setSolution(nekcem::planeWaveX(2.0), 0.0);
  const double dt = reference.stableDt();

  // Production run: checkpoint every ckptEvery steps with rbIO.
  MaxwellSolver production(guide, order);
  production.setSolution(nekcem::planeWaveX(2.0), 0.0);
  int lastCkptStep = -1;
  for (int s = 1; s <= totalSteps; ++s) {
    reference.step(dt);
    production.step(dt);
    if (s % ckptEvery == 0) {
      auto spec = hostio::solverSpec(production, kRanks, dir, s);
      const auto result = hostio::writeCheckpoint(
          spec, {hostio::HostStrategy::kRbIo, 2},
          hostio::snapshotSolver(production, kRanks));
      lastCkptStep = s;
      std::printf("  step %3d: checkpoint (%zu files)\n", s,
                  result.files.size());
      // Host timings vary run to run: stderr, so stdout diffs cleanly.
      std::fflush(stdout);
      std::fprintf(stderr, "[host] %.1f ms, worker-perceived %.2f GB/s\n",
                   result.wallSeconds * 1e3, result.perceivedBandwidth / 1e9);
    }
  }
  if (lastCkptStep < 0) {
    std::printf("no checkpoint was taken; increase steps\n");
    return 1;
  }

  // Simulated crash: the production solver is gone. Restart from disk.
  std::printf("\n-- crash! restarting from step %d --\n", lastCkptStep);
  hostio::HostSpec restartSpec;
  restartSpec.directory = dir;
  restartSpec.step = lastCkptStep;
  const auto data = hostio::readCheckpoint(restartSpec, kRanks);
  MaxwellSolver resumed(guide, order);
  hostio::restoreSolver(resumed, data, restartSpec);
  std::printf("restored t=%.4f after %llu steps\n", resumed.time(),
              static_cast<unsigned long long>(resumed.stepsTaken()));

  // Finish the run and compare against the unbroken reference.
  for (int s = lastCkptStep + 1; s <= totalSteps; ++s) resumed.step(dt);
  double maxDelta = 0;
  for (int f = 0; f < nekcem::kNumFieldComponents; ++f) {
    const auto& a = reference.fields().comp[static_cast<std::size_t>(f)];
    const auto& b = resumed.fields().comp[static_cast<std::size_t>(f)];
    for (std::size_t i = 0; i < a.size(); ++i)
      maxDelta = std::max(maxDelta, std::abs(a[i] - b[i]));
  }
  std::printf("max |reference - resumed| after %d steps: %.3e %s\n",
              totalSteps, maxDelta,
              maxDelta == 0.0 ? "(bit-for-bit)" : "");
  std::printf("final solution error vs analytic wave: %.3e\n",
              resumed.maxError(nekcem::planeWaveX(2.0)));
  std::filesystem::remove_all(dir);
  return maxDelta == 0.0 ? 0 : 1;
}
