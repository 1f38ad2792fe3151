// End-to-end observability: run real checkpoints on a full SimStack with a
// ChromeTraceSink attached and validate the trace the way a user would —
// parse the JSON, check span balance, and check that every instrumented
// layer and the expected ranks actually appear.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "iolib/stack.hpp"
#include "iolib/strategies.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace bgckpt {
namespace {

iolib::SimStackOptions quiet() {
  iolib::SimStackOptions opt;
  opt.noise = stor::NoiseModel::none();
  return opt;
}

iolib::CheckpointSpec smallSpec() {
  iolib::CheckpointSpec spec;
  spec.fieldBytesPerRank = 2048;
  spec.numFields = 2;
  spec.headerBytes = 512;
  return spec;
}

struct TraceSummary {
  std::set<std::string> layers;
  std::set<int> ioRanks;
  std::set<std::string> ioNames;
  int begins = 0;
  int ends = 0;
  int completes = 0;
  std::size_t events = 0;
};

TraceSummary runAndParse(const iolib::StrategyConfig& cfg, int np) {
  auto chrome = std::make_shared<std::ostringstream>();
  std::string text;
  {
    iolib::SimStack stack(np, quiet());
    auto sink = std::make_shared<obs::ChromeTraceSink>(*chrome);
    stack.obs.addSink(sink);
    iolib::runCheckpoint(stack, smallSpec(), cfg);
    sink->close();
    text = chrome->str();
  }

  const auto doc = obs::json::parse(text);
  EXPECT_TRUE(doc.has_value()) << "trace is not valid JSON";
  if (!doc) return {};
  EXPECT_TRUE(doc->isArray());

  TraceSummary s;
  s.events = doc->array->size();
  for (const auto& ev : *doc->array) {
    const std::string ph = ev.stringOr("ph", "?");
    if (ph == "M") continue;
    s.layers.insert(ev.stringOr("cat", "?"));
    if (ph == "B") ++s.begins;
    if (ph == "E") ++s.ends;
    if (ph == "X") ++s.completes;
    if (ev.stringOr("cat", "") == "io") {
      s.ioRanks.insert(static_cast<int>(ev.numberOr("tid", -1)));
      s.ioNames.insert(ev.stringOr("name", "?"));
    }
  }
  return s;
}

TEST(StackTrace, RbIoTraceCoversAllLayersRanksAndPhases) {
  const int np = 256;
  const auto s = runAndParse(iolib::StrategyConfig::rbIo(8, true), np);

  EXPECT_EQ(s.begins, s.ends) << "unbalanced B/E spans";
  EXPECT_GT(s.begins, 0);
  EXPECT_GT(s.completes, 0);

  for (const char* layer :
       {"scheduler", "network", "storage", "filesystem", "mpi", "io", "app"})
    EXPECT_TRUE(s.layers.count(layer)) << "layer missing: " << layer;

  // Every rank does I/O under rbIO: workers send, writers commit.
  ASSERT_EQ(static_cast<int>(s.ioRanks.size()), np);
  EXPECT_EQ(*s.ioRanks.begin(), 0);
  EXPECT_EQ(*s.ioRanks.rbegin(), np - 1);

  // Ops and rbIO phase spans share the io layer.
  for (const char* name :
       {"create", "write", "close", "send", "recv", "handoff", "aggregate",
        "commit"})
    EXPECT_TRUE(s.ioNames.count(name)) << "io event missing: " << name;
}

TEST(StackTrace, CoIoTraceBalancedWithCollectiveWrites) {
  const auto s = runAndParse(iolib::StrategyConfig::coIo(4), 256);
  EXPECT_EQ(s.begins, s.ends);
  EXPECT_TRUE(s.ioNames.count("write"));
  EXPECT_TRUE(s.ioNames.count("close"));
  EXPECT_TRUE(s.layers.count("mpi"));
  EXPECT_EQ(static_cast<int>(s.ioRanks.size()), 256);
}

TEST(StackTrace, ProfileMatchesEventStream) {
  // The stack's op counts are fed from the same kIo events the trace sees:
  // they must equal the trace's X-event counts per op name.
  auto chrome = std::make_shared<std::ostringstream>();
  iolib::SimStack stack(256, quiet());
  auto sink = std::make_shared<obs::ChromeTraceSink>(*chrome);
  stack.obs.addSink(sink);
  iolib::runCheckpoint(stack, smallSpec(), iolib::StrategyConfig::onePfpp());
  sink->close();

  const auto doc = obs::json::parse(chrome->str());
  ASSERT_TRUE(doc.has_value());
  std::uint64_t creates = 0, writes = 0, closes = 0;
  for (const auto& ev : *doc->array) {
    if (ev.stringOr("cat", "") != "io" || ev.stringOr("ph", "") != "X")
      continue;
    const std::string name = ev.stringOr("name", "");
    if (name == "create") ++creates;
    if (name == "write") ++writes;
    if (name == "close") ++closes;
  }
  EXPECT_EQ(creates, stack.profile.opCount(prof::Op::kCreate));
  EXPECT_EQ(writes, stack.profile.opCount(prof::Op::kWrite));
  EXPECT_EQ(closes, stack.profile.opCount(prof::Op::kClose));
  EXPECT_EQ(creates, 256u);  // one file per rank under 1PFPP
}

TEST(StackTrace, UntracedStackStillFillsProfileAndMetrics) {
  iolib::SimStack stack(256, quiet());
  iolib::runCheckpoint(stack, smallSpec(), iolib::StrategyConfig::onePfpp());
  // No ChromeTraceSink attached: the stack's own IoCountsSink keeps the
  // op counts, and layer metrics accumulate regardless.
  EXPECT_EQ(stack.profile.opCount(prof::Op::kCreate), 256u);
  EXPECT_GT(stack.obs.metrics().counter("fs.token.acquires").value(), 0u);
  EXPECT_GT(stack.obs.metrics().counter("stor.requests").value(), 0u);
  EXPECT_GT(stack.obs.metrics().counter("sched.events").value(), 0u);
}

}  // namespace
}  // namespace bgckpt
