#include "iolib/campaign.hpp"

#include <gtest/gtest.h>

#include "iolib/layout.hpp"
#include "iolib/strategies.hpp"

namespace bgckpt::iolib {
namespace {

SimStackOptions quiet() {
  SimStackOptions opt;
  opt.noise = stor::NoiseModel::none();
  return opt;
}

CheckpointSpec smallSpec() {
  CheckpointSpec spec;
  spec.fieldBytesPerRank = 32 * 1024;
  spec.numFields = 6;
  spec.headerBytes = 4096;
  return spec;
}

TEST(Campaign, ValidatesConfig) {
  SimStack stack(256, quiet());
  CampaignConfig cfg;
  cfg.steps = 0;
  EXPECT_THROW(runCampaign(stack, smallSpec(), cfg), std::invalid_argument);
}

TEST(Campaign, BlockingStrategyPaysFullCheckpointTime) {
  SimStack stack(256, quiet());
  CampaignConfig cfg;
  cfg.steps = 20;
  cfg.checkpointEvery = 10;
  cfg.computeStepSeconds = 0.05;
  cfg.strategy = StrategyConfig::coIo(4);
  const auto r = runCampaign(stack, smallSpec(), cfg);
  EXPECT_EQ(r.checkpointsTaken, 2);
  EXPECT_DOUBLE_EQ(r.computeSeconds, 1.0);
  EXPECT_GT(r.totalSeconds, r.computeSeconds);
  EXPECT_GT(r.ioOverheadSeconds, 0);
  // Both generations landed on disk, fully covered.
  GroupFileLayout layout(smallSpec(), 64);
  for (int k = 0; k < 2; ++k) {
    CheckpointSpec s = smallSpec();
    s.step = k;
    for (int part = 0; part < 4; ++part) {
      const auto* img = stack.fsys.image().find(
          partPath(s.directory, s.step, part));
      ASSERT_NE(img, nullptr) << "gen " << k << " part " << part;
      EXPECT_TRUE(img->coversExactly(layout.fileBytes()));
    }
  }
}

TEST(Campaign, RbIoOverlapsWritesWithComputation) {
  // With a cadence long enough for writers to drain, rbIO's campaign time
  // is almost pure compute; coIO pays its checkpoint time in full.
  const auto spec = smallSpec();
  CampaignConfig base;
  base.steps = 20;
  base.checkpointEvery = 10;
  base.computeStepSeconds = 0.1;

  CampaignConfig rb = base;
  rb.strategy = StrategyConfig::rbIo(64, true);
  SimStack rbStack(256, quiet());
  const auto rbRun = runCampaign(rbStack, spec, rb);

  CampaignConfig co = base;
  co.strategy = StrategyConfig::coIo(4);
  SimStack coStack(256, quiet());
  const auto coRun = runCampaign(coStack, spec, co);

  EXPECT_LT(rbRun.ioOverheadSeconds, coRun.ioOverheadSeconds);
  // rbIO workers only pay microsecond handoffs; total ~ compute + the last
  // generation's writer drain at most.
  EXPECT_LT(rbRun.totalSeconds, rbRun.computeSeconds * 1.5);
  EXPECT_GT(rbRun.improvementOver(coRun), 0.9);  // rbIO not worse
}

TEST(Campaign, RbIoWritersKeepUpAtLongCadence) {
  // Checkpoint rarely: writers finish each generation well before the
  // next, so overhead is essentially one final drain.
  const auto spec = smallSpec();
  CampaignConfig cfg;
  cfg.steps = 30;
  cfg.checkpointEvery = 15;
  cfg.computeStepSeconds = 0.2;
  cfg.strategy = StrategyConfig::rbIo(64, true);
  SimStack stack(256, quiet());
  const auto r = runCampaign(stack, spec, cfg);
  EXPECT_EQ(r.checkpointsTaken, 2);
  EXPECT_LT(r.ioOverheadSeconds, 0.25 * r.computeSeconds);
}

TEST(Campaign, TightCadenceBacklogsTheWriters) {
  // Checkpoint far faster than writers can drain: the backlog surfaces as
  // real end-to-end overhead even for rbIO.
  const auto spec = smallSpec();
  auto runWithCadence = [&](int nc) {
    CampaignConfig cfg;
    cfg.steps = 8 * nc;  // 8 checkpoints either way
    cfg.checkpointEvery = nc;
    cfg.computeStepSeconds = 0.001;  // compute is nearly free
    cfg.strategy = StrategyConfig::rbIo(64, true);
    SimStack stack(256, quiet());
    return runCampaign(stack, spec, cfg);
  };
  const auto tight = runWithCadence(1);
  // All 8 generations must serialise at the writers.
  EXPECT_GT(tight.ioOverheadSeconds, 4 * tight.computeSeconds);
}

TEST(Campaign, MeasuredImprovementMatchesEq1Composition) {
  // The campaign's direct improvement and Eq. (1)'s composed prediction
  // from single-checkpoint ratios must agree to first order.
  const auto spec = smallSpec();
  const double tComp = 0.05;
  CampaignConfig base;
  base.steps = 20;
  base.checkpointEvery = 10;
  base.computeStepSeconds = tComp;

  CampaignConfig pfpp = base;
  pfpp.strategy = StrategyConfig::onePfpp();
  SimStack pfppStack(256, quiet());
  const auto pfppRun = runCampaign(pfppStack, spec, pfpp);

  CampaignConfig rb = base;
  rb.strategy = StrategyConfig::rbIo(64, true);
  SimStack rbStack(256, quiet());
  const auto rbRun = runCampaign(rbStack, spec, rb);

  const double measured = rbRun.improvementOver(pfppRun);
  // Composed: one checkpoint of each strategy.
  SimStack a(256, quiet());
  const auto onePfpp = runCheckpoint(a, spec, StrategyConfig::onePfpp());
  SimStack b(256, quiet());
  const auto oneRb = runCheckpoint(b, spec, StrategyConfig::rbIo(64, true));
  const double nc = 10;
  const double composed =
      (onePfpp.makespan / tComp + nc) /
      (oneRb.workerMakespan / tComp + nc);
  // NB: at this toy scale (256 ranks, no metadata storm) 1PFPP can
  // legitimately win — the crossover at scale is the whole point of
  // Figs. 5-7. What must hold is that the direct campaign measurement and
  // the Eq. (1) composition tell the same story.
  EXPECT_NEAR(measured, composed, 0.35 * composed);
}

}  // namespace
}  // namespace bgckpt::iolib
