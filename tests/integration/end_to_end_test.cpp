// Cross-module integration: the simulated strategies, the host backend and
// the solver agree on the logical checkpoint content; campaigns behave
// sanely end to end.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>

#include "hostio/solver_io.hpp"
#include "iofmt/file_io.hpp"
#include "iolib/layout.hpp"
#include "iolib/strategies.hpp"

namespace bgckpt {
namespace {

iolib::SimStackOptions quiet() {
  iolib::SimStackOptions opt;
  opt.noise = stor::NoiseModel::none();
  return opt;
}

iolib::CheckpointSpec tinySpec() {
  iolib::CheckpointSpec spec;
  spec.fieldBytesPerRank = 1024;
  spec.numFields = 6;
  spec.headerBytes = 256;
  spec.carryPayload = true;
  return spec;
}

TEST(EndToEnd, SimulatedAndHostBackendsAgreeOnLogicalContent) {
  // The same logical state (the shared deterministic pattern) written by a
  // simulated strategy and by the host strategy of the same name, at equal
  // nf, must contain identical field blocks, fetched through completely
  // different code paths (FsImage extents vs. real pread through the
  // container format).
  constexpr int kNp = 256;
  const auto spec = tinySpec();
  std::vector<hostio::HostRankData> data(kNp);
  for (int r = 0; r < kNp; ++r) {
    auto payload = iolib::makeRankPayload(spec, r);
    auto& rank = data[static_cast<std::size_t>(r)];
    rank.fields.resize(6);
    for (int f = 0; f < 6; ++f)
      rank.fields[static_cast<std::size_t>(f)] = std::vector<std::byte>(
          payload.begin() + f * static_cast<long>(spec.fieldBytesPerRank),
          payload.begin() +
              (f + 1) * static_cast<long>(spec.fieldBytesPerRank));
  }
  const auto base = std::filesystem::temp_directory_path() /
                    ("bgckpt_e2e_" + std::to_string(::getpid()));

  struct Case {
    iolib::StrategyConfig sim;
    hostio::HostConfig host;
  };
  const Case cases[] = {
      {iolib::StrategyConfig::onePfpp(), {hostio::HostStrategy::k1Pfpp, kNp}},
      {iolib::StrategyConfig::coIo(4), {hostio::HostStrategy::kCoIo, 4}},
      {iolib::StrategyConfig::rbIo(64, true),
       {hostio::HostStrategy::kRbIo, 4}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.sim.describe());
    iolib::SimStack stack(kNp, quiet());
    runCheckpoint(stack, spec, c.sim);

    hostio::HostSpec hostSpec;
    hostSpec.directory = (base / iolib::strategyName(c.sim.kind)).string();
    hostSpec.fieldNames = {"f0", "f1", "f2", "f3", "f4", "f5"};
    hostSpec.fieldBytesPerRank = spec.fieldBytesPerRank;
    const auto written = hostio::writeCheckpoint(hostSpec, c.host, data);

    const iolib::CheckpointPlan plan(kNp, c.sim.kind, c.sim.nf,
                                     c.sim.groupSize);
    ASSERT_EQ(written.files.size(),
              static_cast<std::size_t>(plan.numParts()));
    ASSERT_EQ(stack.fsys.image().fileCount(), written.files.size());
    iolib::GroupFileLayout layout(spec, plan.ranksPerPart());
    for (int part = 0; part < plan.numParts(); ++part) {
      const auto* img = stack.fsys.image().find(
          iolib::partPath(spec.directory, spec.step, part));
      ASSERT_NE(img, nullptr);
      iofmt::CheckpointReader reader(
          written.files[static_cast<std::size_t>(part)]);
      for (int f = 0; f < 6; ++f)
        for (int local = 0; local < plan.ranksPerPart(); ++local) {
          const auto simBytes = img->readBytes(
              {layout.fieldOffset(f, local), spec.fieldBytesPerRank});
          const auto hostBytes = reader.readBlock(f, local);
          ASSERT_EQ(simBytes, hostBytes)
              << "part " << part << " field " << f << " rank " << local;
        }
    }
  }
  std::filesystem::remove_all(base);
}

TEST(EndToEnd, AllStrategiesCoverAllFilesAtMultipleGroupSizes) {
  const auto spec = tinySpec();
  for (int np : {256, 1024}) {
    for (int groupSize : {8, 32, 64}) {
      iolib::SimStack stack(np, quiet());
      runCheckpoint(stack, spec,
                    iolib::StrategyConfig::rbIo(groupSize, true));
      iolib::GroupFileLayout layout(spec, groupSize);
      for (int part = 0; part < np / groupSize; ++part) {
        const auto* img =
            stack.fsys.image().find(
                iolib::partPath(spec.directory, spec.step, part));
        ASSERT_NE(img, nullptr) << np << "/" << groupSize << "/" << part;
        EXPECT_TRUE(img->coversExactly(layout.fileBytes()))
            << np << "/" << groupSize << "/" << part;
      }
    }
  }
}

TEST(EndToEnd, MultiStepCampaignAccumulatesDistinctFiles) {
  constexpr int kNp = 256;
  iolib::SimStack stack(kNp, quiet());
  auto spec = tinySpec();
  spec.carryPayload = false;
  for (int step = 0; step < 3; ++step) {
    spec.step = step;
    runCheckpoint(stack, spec, iolib::StrategyConfig::rbIo(64, true));
  }
  EXPECT_EQ(stack.fsys.image().fileCount(), 3u * 4u);
  EXPECT_TRUE(stack.fsys.image().exists("ckpt/s2.part3"));
}

TEST(EndToEnd, SolverCheckpointsThroughEveryHostStrategyIdentically) {
  nekcem::BoxMesh mesh(2, 2, 2, 1, 1, 1, nekcem::Boundary::kPeriodic);
  nekcem::MaxwellSolver solver(mesh, 4);
  solver.setSolution(nekcem::planeWaveX(1.0), 0.0);
  solver.run(3, solver.stableDt());

  const auto base = std::filesystem::temp_directory_path() /
                    ("bgckpt_e2e_solver_" + std::to_string(::getpid()));
  std::vector<std::uint64_t> hashes;
  for (auto strategy :
       {hostio::HostStrategy::k1Pfpp, hostio::HostStrategy::kCoIo,
        hostio::HostStrategy::kRbIo}) {
    auto spec = hostio::solverSpec(
        solver, 8, (base / std::to_string(static_cast<int>(strategy))).string(),
        0);
    hostio::writeCheckpoint(spec, {strategy, 2},
                            hostio::snapshotSolver(solver, 8));
    // Restore through the generic reader and hash the state.
    hostio::HostSpec readSpec;
    readSpec.directory = spec.directory;
    const auto data = hostio::readCheckpoint(readSpec, 8);
    nekcem::MaxwellSolver restored(mesh, 4);
    hostio::restoreSolver(restored, data, readSpec);
    std::uint64_t h = 1469598103934665603ull;
    for (int f = 0; f < 6; ++f)
      for (double v : restored.fields().comp[static_cast<std::size_t>(f)]) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, 8);
        h = (h ^ bits) * 1099511628211ull;
      }
    hashes.push_back(h);
  }
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_EQ(hashes[1], hashes[2]);
  std::filesystem::remove_all(base);
}

TEST(EndToEnd, NoisyRunsAreSeedDeterministic) {
  auto once = [](std::uint64_t seed) {
    iolib::SimStackOptions opt;
    opt.seed = seed;  // default (noisy) NoiseModel
    iolib::SimStack stack(1024, opt);
    auto spec = iolib::CheckpointSpec::nekcemWeakScaling(1024);
    return runCheckpoint(stack, spec, iolib::StrategyConfig::coIo(16))
        .makespan;
  };
  EXPECT_DOUBLE_EQ(once(7), once(7));
  EXPECT_NE(once(7), once(8));
}

}  // namespace
}  // namespace bgckpt
