#include "hostio/host_checkpoint.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>

#include "iolib/plan.hpp"

namespace bgckpt::hostio {
namespace {

class HostCheckpointTest : public ::testing::TestWithParam<HostStrategy> {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("bgckpt_host_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    // gtest parameterised names contain '/', which we must not mkdir as-is.
    std::replace(dir_.begin(), dir_.end(), '/', '_');
    dir_ = (std::filesystem::temp_directory_path() / dir_).string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static HostSpec makeSpec(const std::string& dir,
                           std::uint64_t fieldBytes = 2048) {
    HostSpec spec;
    spec.directory = dir;
    spec.step = 4;
    spec.fieldNames = {"Ex", "Ey", "Ez", "Hx", "Hy", "Hz"};
    spec.fieldBytesPerRank = fieldBytes;
    spec.simTime = 2.5;
    spec.iteration = 77;
    return spec;
  }

  static std::vector<HostRankData> makeData(int np, const HostSpec& spec) {
    std::vector<HostRankData> data(static_cast<std::size_t>(np));
    for (int r = 0; r < np; ++r) {
      auto& rank = data[static_cast<std::size_t>(r)];
      rank.fields.resize(spec.fieldNames.size());
      for (std::size_t f = 0; f < rank.fields.size(); ++f) {
        rank.fields[f].resize(spec.fieldBytesPerRank);
        for (std::size_t i = 0; i < rank.fields[f].size(); ++i)
          rank.fields[f][i] =
              static_cast<std::byte>((r * 131 + f * 17 + i) & 0xFF);
      }
    }
    return data;
  }

  std::string dir_;
};

TEST_P(HostCheckpointTest, WriteReadRoundTripAllStrategies) {
  constexpr int np = 16;
  HostSpec spec = makeSpec(dir_);
  const auto data = makeData(np, spec);
  HostConfig config;
  config.strategy = GetParam();
  config.nf = 4;
  const auto result = writeCheckpoint(spec, config, data);
  EXPECT_GT(result.wallSeconds, 0);
  EXPECT_GT(result.bandwidth, 0);
  EXPECT_EQ(result.perRankSeconds.size(), 16u);
  EXPECT_TRUE(verifyCheckpoint(spec));

  HostSpec readSpec;
  readSpec.directory = spec.directory;
  readSpec.step = spec.step;
  const auto back = readCheckpoint(readSpec, np);
  EXPECT_DOUBLE_EQ(readSpec.simTime, 2.5);
  EXPECT_EQ(readSpec.iteration, 77u);
  EXPECT_EQ(readSpec.fieldNames, spec.fieldNames);
  for (int r = 0; r < np; ++r)
    for (std::size_t f = 0; f < spec.fieldNames.size(); ++f)
      ASSERT_EQ(back[static_cast<std::size_t>(r)].fields[f],
                data[static_cast<std::size_t>(r)].fields[f])
          << "rank " << r << " field " << f;
}

TEST_P(HostCheckpointTest, FileCountMatchesStrategy) {
  constexpr int np = 8;
  HostSpec spec = makeSpec(dir_);
  HostConfig config;
  config.strategy = GetParam();
  config.nf = 2;
  writeCheckpoint(spec, config, makeData(np, spec));
  int files = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator(spec.directory))
    ++files;
  EXPECT_EQ(files, GetParam() == HostStrategy::k1Pfpp ? np : 2);
}

TEST_P(HostCheckpointTest, FailedPartWriteThrowsInsteadOfAborting) {
  // A directory sits where part 1 goes, so creating that file fails. For
  // every strategy the failure must reach the caller as an exception, not
  // end the process inside a rank thread, and waiting ranks must be
  // released.
  constexpr int np = 4;
  const HostSpec spec = makeSpec(dir_);
  const auto victim = iolib::partPath(spec.directory, spec.step, 1);
  std::filesystem::create_directories(victim);
  HostConfig config;
  config.strategy = GetParam();
  config.nf = 2;
  try {
    writeCheckpoint(spec, config, makeData(np, spec));
    ADD_FAILURE() << "writeCheckpoint did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(victim), std::string::npos)
        << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, HostCheckpointTest,
                         ::testing::Values(HostStrategy::k1Pfpp,
                                           HostStrategy::kCoIo,
                                           HostStrategy::kCoIoTwoPhase,
                                           HostStrategy::kRbIo),
                         [](const auto& paramInfo) {
                           switch (paramInfo.param) {
                             case HostStrategy::k1Pfpp: return "OnePfpp";
                             case HostStrategy::kCoIo: return "CoIo";
                             case HostStrategy::kCoIoTwoPhase:
                               return "CoIoTwoPhase";
                             default: return "RbIo";
                           }
                         });

TEST(HostCheckpoint, TwoPhaseBlocksWorkersUntilCommit) {
  // Collective semantics: in coIO two-phase, non-aggregator ranks wait for
  // their group's file; in rbIO they return after the handoff. Same data,
  // same files — very different worker-visible times.
  constexpr int kNp = 8;
  const auto base = std::filesystem::temp_directory_path() /
                    ("bgckpt_twophase_" + std::to_string(::getpid()));
  std::filesystem::remove_all(base);
  HostSpec spec;
  spec.fieldNames = {"Ex", "Ey", "Ez", "Hx", "Hy", "Hz"};
  spec.fieldBytesPerRank = 512 * 1024;
  std::vector<HostRankData> data(kNp);
  for (auto& r : data)
    r.fields.assign(6, std::vector<std::byte>(spec.fieldBytesPerRank,
                                              std::byte{0x5A}));
  auto runOne = [&](HostStrategy strategy) {
    HostSpec s = spec;
    s.directory =
        (base / std::to_string(static_cast<int>(strategy))).string();
    return writeCheckpoint(s, {strategy, 1}, data);
  };
  const auto twoPhase = runOne(HostStrategy::kCoIoTwoPhase);
  const auto rbio = runOne(HostStrategy::kRbIo);

  auto workerMax = [](const HostRunResult& r) {
    double mx = 0;
    for (std::size_t i = 1; i < r.perRankSeconds.size(); ++i)
      mx = std::max(mx, r.perRankSeconds[i]);
    return mx;
  };
  // Two-phase workers block for (almost) the whole wall time; rbIO workers
  // for a small fraction of it.
  EXPECT_GT(workerMax(twoPhase), 0.5 * twoPhase.wallSeconds);
  EXPECT_LT(workerMax(rbio), workerMax(twoPhase));
  std::filesystem::remove_all(base);
}

TEST(HostCheckpoint, StrategiesProduceInterchangeableFiles) {
  // Same logical content, any strategy; coIO and rbIO with equal nf produce
  // the same file set, and all three read back identically.
  constexpr int np = 8;
  const auto base = std::filesystem::temp_directory_path() /
                    ("bgckpt_hostx_" + std::to_string(::getpid()));
  std::filesystem::remove_all(base);
  HostSpec spec;
  spec.step = 1;
  spec.fieldNames = {"Ex", "Hy"};
  spec.fieldBytesPerRank = 512;
  std::vector<HostRankData> data(np);
  for (int r = 0; r < np; ++r) {
    data[static_cast<std::size_t>(r)].fields.assign(
        2, std::vector<std::byte>(512, static_cast<std::byte>(r + 1)));
  }
  std::vector<std::vector<HostRankData>> reads;
  for (auto strategy : {HostStrategy::k1Pfpp, HostStrategy::kCoIo,
                        HostStrategy::kRbIo}) {
    HostSpec s = spec;
    s.directory = (base / std::to_string(static_cast<int>(strategy))).string();
    HostConfig cfg{strategy, 2};
    writeCheckpoint(s, cfg, data);
    HostSpec rs;
    rs.directory = s.directory;
    rs.step = s.step;
    reads.push_back(readCheckpoint(rs, np));
  }
  for (std::size_t s = 1; s < reads.size(); ++s)
    for (int r = 0; r < np; ++r)
      for (int f = 0; f < 2; ++f)
        ASSERT_EQ(reads[s][static_cast<std::size_t>(r)]
                      .fields[static_cast<std::size_t>(f)],
                  reads[0][static_cast<std::size_t>(r)]
                      .fields[static_cast<std::size_t>(f)]);
  std::filesystem::remove_all(base);
}

TEST(HostCheckpoint, RbIoPerceivedBandwidthExceedsRaw) {
  constexpr int np = 8;
  const auto dir = std::filesystem::temp_directory_path() /
                   ("bgckpt_hostp_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  HostSpec spec;
  spec.directory = dir.string();
  spec.fieldNames = {"Ex", "Ey", "Ez", "Hx", "Hy", "Hz"};
  spec.fieldBytesPerRank = 256 * 1024;
  std::vector<HostRankData> data(np);
  for (auto& r : data)
    r.fields.assign(6, std::vector<std::byte>(spec.fieldBytesPerRank,
                                              std::byte{0x42}));
  HostConfig cfg{HostStrategy::kRbIo, 1};
  const auto result = writeCheckpoint(spec, cfg, data);
  // Handing a pointer to the writer is far faster than writing ~12 MB.
  EXPECT_GT(result.perceivedBandwidth, result.bandwidth);
  EXPECT_GT(result.maxHandoffSeconds, 0);
  std::filesystem::remove_all(dir);
}

TEST(HostCheckpoint, InvalidConfigsThrow) {
  HostSpec spec;
  spec.directory = "/tmp/unused";
  spec.fieldNames = {"Ex"};
  spec.fieldBytesPerRank = 8;
  std::vector<HostRankData> data(6);
  for (auto& r : data) r.fields.assign(1, std::vector<std::byte>(8));
  HostConfig cfg{HostStrategy::kCoIo, 4};  // 4 does not divide 6
  EXPECT_THROW(writeCheckpoint(spec, cfg, data), std::invalid_argument);
  EXPECT_THROW(writeCheckpoint(spec, cfg, {}), std::invalid_argument);
  data[0].fields[0].resize(4);  // size mismatch
  cfg.nf = 2;
  EXPECT_THROW(writeCheckpoint(spec, cfg, data), std::invalid_argument);
}

TEST(HostCheckpoint, ReadMissingPartThrows) {
  HostSpec spec;
  spec.directory = "/tmp/bgckpt_definitely_missing_dir";
  spec.step = 0;
  EXPECT_THROW(readCheckpoint(spec, 4), std::runtime_error);
}

}  // namespace
}  // namespace bgckpt::hostio
