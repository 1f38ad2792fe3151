#include "iolib/plan.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace bgckpt::iolib {
namespace {

TEST(Plan, PartPathEncodesStepAndPart) {
  EXPECT_EQ(partPath("out", 12, 3), "out/s12.part3");
  EXPECT_EQ(privateDirPath("out", 12, 3), "out/r3/s12");
}

TEST(Plan, OnePfppGivesEveryRankItsOwnPart) {
  const CheckpointPlan plan(8, StrategyKind::k1Pfpp, 0, 0);
  EXPECT_EQ(plan.numParts(), 8);
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(plan.partOf(r), r);
    EXPECT_EQ(plan.slotOf(r), 0);
    EXPECT_EQ(plan.firstRank(r), r);
    EXPECT_TRUE(plan.isWriter(r));
    EXPECT_EQ(plan.groupOf(r).size(), 1u);
  }
}

TEST(Plan, CoIoSplitsRanksIntoNfContiguousParts) {
  const CheckpointPlan plan(8, StrategyKind::kCoIo, 2, 64);
  EXPECT_EQ(plan.numParts(), 2);
  EXPECT_EQ(plan.ranksPerPart(), 4);
  EXPECT_EQ(plan.partOf(5), 1);
  EXPECT_EQ(plan.slotOf(5), 1);
  EXPECT_EQ(plan.firstRank(1), 4);
  EXPECT_EQ(plan.groupSize(), 1);  // every rank writes its own blocks
  EXPECT_EQ(plan.writerOf(5), 5);
}

TEST(Plan, RbIoIndependentGivesEachWriterOnePart) {
  for (int nf : {0, 4}) {  // 0 is short for nf == ng
    const CheckpointPlan plan(256, StrategyKind::kRbIo, nf, 64);
    EXPECT_EQ(plan.numParts(), 4);
    EXPECT_EQ(plan.numWriters(), 4);
    EXPECT_EQ(plan.writerOf(130), 128);
    EXPECT_TRUE(plan.isWriter(128));
    EXPECT_FALSE(plan.isWriter(130));
    EXPECT_EQ(plan.groupOf(128).front(), 128);
    EXPECT_EQ(plan.groupOf(128).back(), 191);
    EXPECT_EQ(plan.partOf(130), 2);
    EXPECT_EQ(plan.slotOf(130), 2);
    EXPECT_FALSE(plan.writersCommitCollectively());
  }
}

TEST(Plan, RbIoSharedFilePutsEveryGroupInOnePart) {
  const CheckpointPlan plan(256, StrategyKind::kRbIo, 1, 64);
  EXPECT_EQ(plan.numParts(), 1);
  EXPECT_EQ(plan.numWriters(), 4);
  EXPECT_EQ(plan.writerOf(130), 128);
  EXPECT_EQ(plan.slotOf(130), 130);
  EXPECT_TRUE(plan.writersCommitCollectively());
}

TEST(Plan, WriterPerPartDerivesTheGroupFromNf) {
  for (int nf : {1, 2}) {
    const auto plan = CheckpointPlan::writerPerPart(8, nf);
    EXPECT_EQ(plan.kind(), StrategyKind::kRbIo);
    EXPECT_EQ(plan.numParts(), nf);
    EXPECT_EQ(plan.groupSize(), 8 / nf);
    EXPECT_EQ(plan.writerOf(7), 8 - 8 / nf);
    EXPECT_EQ(plan.slotOf(7), 8 / nf - 1);
    EXPECT_FALSE(plan.writersCommitCollectively());
  }
}

TEST(Plan, InvalidInputsThrow) {
  EXPECT_THROW(CheckpointPlan(0, StrategyKind::k1Pfpp, 0, 0),
               std::invalid_argument);
  EXPECT_THROW(CheckpointPlan(256, StrategyKind::kCoIo, 3, 0),
               std::invalid_argument);
  EXPECT_THROW(CheckpointPlan(256, StrategyKind::kCoIo, 0, 0),
               std::invalid_argument);
  EXPECT_THROW(CheckpointPlan(256, StrategyKind::kRbIo, 0, 7),
               std::invalid_argument);
  EXPECT_THROW(CheckpointPlan(256, StrategyKind::kRbIo, 2, 64),
               std::invalid_argument);  // neither 1 nor ng = 4
  EXPECT_THROW(CheckpointPlan(256, StrategyKind::kRbIo, 0, 0),
               std::invalid_argument);  // groupSize 0 is no group
  EXPECT_THROW(CheckpointPlan::writerPerPart(6, 4), std::invalid_argument);
  EXPECT_THROW(CheckpointPlan::writerPerPart(6, 0), std::invalid_argument);
  EXPECT_THROW(CheckpointPlan::writerPerPart(0, 1), std::invalid_argument);
}

}  // namespace
}  // namespace bgckpt::iolib
