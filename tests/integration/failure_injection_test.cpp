// Failure injection: the system must stay correct (not merely fast) under
// degraded conditions — noise storms, lock-revocation storms, partially
// written checkpoints, and generation fallback on restart.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>

#include "hostio/solver_io.hpp"
#include "iolib/layout.hpp"
#include "iolib/strategies.hpp"

namespace bgckpt {
namespace {

TEST(FailureInjection, ExtremeNoiseSlowsButNeverCorrupts) {
  iolib::SimStackOptions opt;
  opt.noise.slowProbability = 0.5;
  opt.noise.slowFactorMedian = 12.0;
  opt.noise.severeProbability = 1e-3;
  iolib::SimStack noisy(256, opt);
  iolib::SimStackOptions quiet;
  quiet.noise = stor::NoiseModel::none();
  iolib::SimStack calm(256, quiet);

  iolib::CheckpointSpec spec;
  spec.fieldBytesPerRank = 4096;
  spec.numFields = 4;
  spec.carryPayload = true;
  const auto cfg = iolib::StrategyConfig::coIo(4);
  const auto slow = runCheckpoint(noisy, spec, cfg);
  const auto fast = runCheckpoint(calm, spec, cfg);
  EXPECT_GT(slow.makespan, 2.0 * fast.makespan);  // the storm hurt
  // ... but content is byte-identical.
  for (int part = 0; part < 4; ++part) {
    const auto* a = noisy.fsys.image().find(iolib::checkpointPath(spec, part));
    const auto* b = calm.fsys.image().find(iolib::checkpointPath(spec, part));
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->contentHash(), b->contentHash());
  }
}

TEST(FailureInjection, RevocationStormFromUnalignedWritersStaysCorrect) {
  // Force false sharing: many clients write interleaved sub-block extents
  // of one file. Slower (token ping-pong) but still exact.
  iolib::SimStackOptions opt;
  opt.noise = stor::NoiseModel::none();
  iolib::SimStack stack(256, opt);
  constexpr std::uint64_t kPiece = 64 * 1024;  // far below the 4 MiB block

  auto program = [](iolib::SimStack& s, int rank) -> sim::Task<> {
    if (rank == 0) {
      auto fh = co_await s.fsys.create(0, "storm");
      co_await s.fsys.close(0, fh);
    }
    co_await s.sched.delay(1e-3 * (rank + 1));
    auto fh = co_await s.fsys.open(rank, "storm");
    for (int round = 0; round < 4; ++round) {
      const std::uint64_t offset =
          (static_cast<std::uint64_t>(round) * 256 +
           static_cast<std::uint64_t>(rank)) *
          kPiece;
      co_await s.fsys.write(rank, fh, offset, kPiece);
    }
    co_await s.fsys.close(rank, fh);
  };
  for (int r = 0; r < 256; ++r) stack.sched.spawn(program(stack, r));
  stack.sched.run();
  ASSERT_EQ(stack.sched.liveRoots(), 0u);
  EXPECT_GT(stack.fsys.totalRevocations(), 100u);  // the storm happened
  const auto* img = stack.fsys.image().find("storm");
  ASSERT_NE(img, nullptr);
  EXPECT_TRUE(img->coversExactly(4ull * 256 * kPiece));  // and no data lost
}

class CrashRestartTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("bgckpt_crash_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(CrashRestartTest, TruncatedCheckpointDetectedAndOlderGenerationUsed) {
  nekcem::BoxMesh mesh(2, 2, 2, 1, 1, 1, nekcem::Boundary::kPeriodic);
  nekcem::MaxwellSolver solver(mesh, 4);
  solver.setSolution(nekcem::planeWaveX(1.0), 0.0);
  const double dt = solver.stableDt();

  // Two checkpoint generations: step 10 (good) and step 20 (to be damaged).
  solver.run(10, dt);
  auto spec10 = hostio::solverSpec(solver, 8, dir_, 10);
  hostio::writeCheckpoint(spec10, {hostio::HostStrategy::kRbIo, 2},
                          hostio::snapshotSolver(solver, 8));
  solver.run(10, dt);
  auto spec20 = hostio::solverSpec(solver, 8, dir_, 20);
  hostio::writeCheckpoint(spec20, {hostio::HostStrategy::kRbIo, 2},
                          hostio::snapshotSolver(solver, 8));

  // Crash mid-write of generation 20: corrupt a byte in part 1's data.
  {
    const auto victim = hostio::hostCheckpointPath(spec20, 1);
    int fd = ::open(victim.c_str(), O_WRONLY);
    ASSERT_GE(fd, 0);
    char junk = 0x7F;
    ASSERT_EQ(::pwrite(fd, &junk, 1, 8000), 1);  // inside section data
    ::close(fd);
  }

  // Restart logic: prefer the newest generation whose checksums verify.
  hostio::HostSpec probe20;
  probe20.directory = dir_;
  probe20.step = 20;
  EXPECT_FALSE(hostio::verifyCheckpoint(probe20));
  hostio::HostSpec probe10;
  probe10.directory = dir_;
  probe10.step = 10;
  EXPECT_TRUE(hostio::verifyCheckpoint(probe10));

  const auto data = hostio::readCheckpoint(probe10, 8);
  nekcem::MaxwellSolver resumed(mesh, 4);
  hostio::restoreSolver(resumed, data, probe10);
  EXPECT_EQ(resumed.stepsTaken(), 10u);
  // Resume and meet the reference trajectory bitwise at step 20.
  resumed.run(10, dt);
  nekcem::MaxwellSolver reference(mesh, 4);
  reference.setSolution(nekcem::planeWaveX(1.0), 0.0);
  reference.run(20, dt);
  for (int f = 0; f < 6; ++f)
    EXPECT_EQ(resumed.fields().comp[static_cast<std::size_t>(f)],
              reference.fields().comp[static_cast<std::size_t>(f)]);
}

// Two rbIO generations (steps 10 and 20, two parts each) in `dir`.
void writeTwoGenerations(const std::string& dir) {
  for (int step : {10, 20}) {
    hostio::HostSpec spec;
    spec.directory = dir;
    spec.step = step;
    spec.fieldNames = {"Ex", "Hy"};
    spec.fieldBytesPerRank = 4096;
    const std::vector<std::byte> block(4096, static_cast<std::byte>(step));
    std::vector<hostio::HostRankData> data(4);
    for (auto& r : data) r.fields.assign(2, block);
    hostio::writeCheckpoint(spec, {hostio::HostStrategy::kRbIo, 2}, data);
  }
}

hostio::HostSpec probe(const std::string& dir, int step) {
  hostio::HostSpec spec;
  spec.directory = dir;
  spec.step = step;
  return spec;
}

TEST_F(CrashRestartTest, TruncatedPartFailsVerifyWithoutThrowing) {
  writeTwoGenerations(dir_);
  const auto victim = hostio::hostCheckpointPath(probe(dir_, 20), 1);
  std::filesystem::resize_file(victim,
                               std::filesystem::file_size(victim) / 2);
  bool verified = true;
  EXPECT_NO_THROW(verified = hostio::verifyCheckpoint(probe(dir_, 20)));
  EXPECT_FALSE(verified);
  EXPECT_TRUE(hostio::verifyCheckpoint(probe(dir_, 10)));
}

TEST_F(CrashRestartTest, CorruptMasterHeaderFailsVerifyWithoutThrowing) {
  writeTwoGenerations(dir_);
  {
    const auto victim = hostio::hostCheckpointPath(probe(dir_, 20), 0);
    int fd = ::open(victim.c_str(), O_RDWR);
    ASSERT_GE(fd, 0);
    char b = 0;
    ASSERT_EQ(::pread(fd, &b, 1, 70), 1);  // application name
    b = static_cast<char>(b ^ 0x01);
    ASSERT_EQ(::pwrite(fd, &b, 1, 70), 1);
    ::close(fd);
  }
  bool verified = true;
  EXPECT_NO_THROW(verified = hostio::verifyCheckpoint(probe(dir_, 20)));
  EXPECT_FALSE(verified);
  EXPECT_TRUE(hostio::verifyCheckpoint(probe(dir_, 10)));
}

TEST_F(CrashRestartTest, MissingPartFileDetected) {
  hostio::HostSpec spec;
  spec.directory = dir_;
  spec.fieldNames = {"Ex"};
  spec.fieldBytesPerRank = 64;
  std::vector<hostio::HostRankData> data(4);
  for (auto& r : data) r.fields.assign(1, std::vector<std::byte>(64));
  hostio::writeCheckpoint(spec, {hostio::HostStrategy::kCoIo, 2}, data);
  std::filesystem::remove(hostio::hostCheckpointPath(spec, 1));
  hostio::HostSpec probe;
  probe.directory = dir_;
  EXPECT_THROW(hostio::readCheckpoint(probe, 4), std::runtime_error);
}

TEST(FailureInjection, WriterBufferSmallerThanGroupStillCompletes) {
  // rbIO writers flush whenever the buffer fills; a tiny buffer forces many
  // flushes but must not change the result.
  iolib::SimStackOptions opt;
  opt.noise = stor::NoiseModel::none();
  iolib::CheckpointSpec spec;
  spec.fieldBytesPerRank = 8192;
  spec.numFields = 4;
  spec.carryPayload = true;

  auto run = [&](sim::Bytes buffer) {
    iolib::SimStack stack(256, opt);
    auto cfg = iolib::StrategyConfig::rbIo(64, true);
    cfg.writerBuffer = buffer;
    runCheckpoint(stack, spec, cfg);
    return stack.fsys.image().find(iolib::checkpointPath(spec, 0))
        ->contentHash();
  };
  EXPECT_EQ(run(16 * 1024), run(64 * sim::MiB));
}

}  // namespace
}  // namespace bgckpt
