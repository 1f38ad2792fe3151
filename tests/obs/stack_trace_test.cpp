// End-to-end observability: run real checkpoints on a full SimStack with a
// ChromeTraceSink attached and validate the trace the way a user would —
// parse the JSON, check span balance, and check that every instrumented
// layer and the expected ranks actually appear.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <source_location>
#include <sstream>
#include <string>
#include <vector>

#include "iolib/stack.hpp"
#include "iolib/strategies.hpp"
#include "obs/attr.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "simcore/simcheck.hpp"

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

/// Each rank's time inside its kApp "checkpoint" envelopes, summed from the
/// B/E pairs: a measure of blocked time that shares no code with the
/// attribution sweep.
class EnvelopeSink final : public obs::TraceSink {
 public:
  void event(const obs::TraceEvent& ev) override {
    if (std::strcmp(ev.name, "checkpoint") != 0) return;
    const auto rank = static_cast<std::size_t>(ev.tid);
    if (rank >= seconds.size()) {
      seconds.resize(rank + 1, 0.0);
      open_.resize(rank + 1, 0.0);
    }
    if (ev.phase == 'B') open_[rank] = ev.ts;
    if (ev.phase == 'E') seconds[rank] += ev.ts - open_[rank];
  }
  unsigned layerMask() const override {
    return obs::layerBit(obs::Layer::kApp);
  }

  std::vector<double> seconds;  // index = rank

 private:
  std::vector<double> open_;
};

// --attr's per-rank blocked time is the exclusive partition's non-compute
// share; it must equal the rank's checkpoint envelope. Attribution also
// counts the coordinated-start barrier (and rbIO's writer split) ahead of
// the envelope as barrier time: 2-4 us per rank here, inside the 1 ms slack.
TEST(StackTrace, AttributedBlockedTimeIsTheCheckpointEnvelope) {
  for (const auto& cfg : {iolib::StrategyConfig::onePfpp(),
                          iolib::StrategyConfig::rbIo(8, true)}) {
    iolib::SimStack stack(256, quiet());
    auto attr = std::make_shared<obs::AttributionSink>();
    auto envelopes = std::make_shared<EnvelopeSink>();
    stack.obs.addSink(attr);
    stack.obs.addSink(envelopes);
    iolib::runCheckpoint(stack, smallSpec(), cfg);
    stack.obs.finalize(stack.sched.now());
    const obs::AttributionEngine::Report& report = attr->report();
    ASSERT_EQ(report.ranks.size(), 256u);
    ASSERT_EQ(envelopes->seconds.size(), 256u);
    for (const auto& r : report.ranks)
      EXPECT_NEAR(r.blocked(),
                  envelopes->seconds[static_cast<std::size_t>(r.rank)], 0.001)
          << "rank " << r.rank;
  }
}

// A fatal SimChecker violation aborts the process right after its report,
// so the report flushes every sink first: with the sink still open, the
// trace file on disk already holds every event, ending with the violation's
// own counter sample, and reads as a trace with no closing "]". Warn mode
// reports the same way without aborting, so the test can read the file.
TEST(StackTrace, ViolationFlushesTheTraceFile) {
  const std::string path = ::testing::TempDir() + "stack_trace_violation.json";
  iolib::SimStackOptions opt = quiet();
  opt.simcheck = sim::SimCheckMode::kWarn;
  iolib::SimStack stack(256, opt);
  std::shared_ptr<obs::ChromeTraceSink> sink =
      obs::ChromeTraceSink::toFile(path);
  stack.obs.addSink(sink);
  iolib::runCheckpoint(stack, smallSpec(), iolib::StrategyConfig::coIo(4));
  ASSERT_NE(stack.checker, nullptr);
  stack.checker->onResourceOverRelease("test.resource", 2, 1,
                                       std::source_location::current());
  ASSERT_EQ(stack.checker->violationCount(), 1u);

  std::ifstream in(path);
  std::string line;
  std::string last;
  std::uint64_t events = 0;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == ',') line.pop_back();
    if (line == "[") continue;
    const auto ev = obs::json::parse(line);
    ASSERT_TRUE(ev.has_value()) << line;
    if (ev->stringOr("ph", "") == "M") continue;
    ++events;
    last = ev->stringOr("name", "");
  }
  EXPECT_EQ(events, sink->eventsWritten());
  EXPECT_EQ(last, "simcheck.violation");
  sink->close();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bgckpt
