// Blocked-time attribution.
#include "obs/attr.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>

#include "obs/json.hpp"
#include "obs/obs.hpp"

namespace bgckpt::obs {
namespace {

TraceEvent mk(Layer layer, char phase, int tid, const char* name, double t0,
              double dur = 0) {
  TraceEvent ev;
  ev.layer = layer;
  ev.phase = phase;
  ev.tid = tid;
  ev.name = name;
  ev.ts = t0;
  ev.dur = dur;
  return ev;
}

TEST(Attribution, ClassifiesBySpecificityDepth) {
  Phase phase;
  int depth;
  ASSERT_TRUE(AttributionEngine::classify(mk(Layer::kApp, 'B', 0, "checkpoint", 0),
                                          &phase, &depth));
  EXPECT_EQ(phase, Phase::kOther);
  EXPECT_EQ(depth, 1);
  ASSERT_TRUE(AttributionEngine::classify(mk(Layer::kIo, 'X', 0, "send", 0),
                                          &phase, &depth));
  EXPECT_EQ(phase, Phase::kHandoffSend);
  EXPECT_EQ(depth, 2);
  ASSERT_TRUE(AttributionEngine::classify(mk(Layer::kMpi, 'X', 0, "barrier", 0),
                                          &phase, &depth));
  EXPECT_EQ(phase, Phase::kBarrier);
  EXPECT_EQ(depth, 3);
  ASSERT_TRUE(AttributionEngine::classify(
      mk(Layer::kFilesystem, 'X', 0, "token_wait", 0), &phase, &depth));
  EXPECT_EQ(phase, Phase::kTokenWait);
  EXPECT_EQ(depth, 4);
  // No-signal events: p2p messages, the fs mirrors of kIo ops, counters.
  EXPECT_FALSE(AttributionEngine::classify(mk(Layer::kMpi, 'X', 0, "message", 0),
                                           &phase, &depth));
  EXPECT_FALSE(AttributionEngine::classify(
      mk(Layer::kFilesystem, 'X', 0, "write", 0), &phase, &depth));
  EXPECT_FALSE(AttributionEngine::classify(
      mk(Layer::kScheduler, 'X', 0, "root", 0), &phase, &depth));
}

TEST(Attribution, DeepestCoveringSpanWinsAndPartitionIsExact) {
  AttributionEngine eng;
  // Envelope [0,10]; a write [2,6]; a barrier [3,4] inside the write; a
  // token wait [3.2,3.5] inside the barrier window.
  eng.addEvent(mk(Layer::kApp, 'B', 0, "checkpoint", 0.0));
  eng.addEvent(mk(Layer::kIo, 'X', 0, "write", 2.0, 4.0));
  eng.addEvent(mk(Layer::kMpi, 'X', 0, "collective", 3.0, 1.0));
  eng.addEvent(mk(Layer::kFilesystem, 'X', 0, "token_wait", 3.2, 0.3));
  eng.addEvent(mk(Layer::kApp, 'E', 0, "checkpoint", 10.0));

  const auto r = eng.compute(12.0);
  ASSERT_EQ(r.ranks.size(), 1u);
  const auto& s = r.ranks[0].seconds;
  EXPECT_DOUBLE_EQ(s[static_cast<int>(Phase::kCompute)], 2.0);   // [10,12]
  EXPECT_DOUBLE_EQ(s[static_cast<int>(Phase::kOther)], 6.0);     // envelope gap
  EXPECT_DOUBLE_EQ(s[static_cast<int>(Phase::kWrite)], 3.0);     // 4 - barrier
  EXPECT_DOUBLE_EQ(s[static_cast<int>(Phase::kBarrier)], 0.7);   // 1 - token
  EXPECT_DOUBLE_EQ(s[static_cast<int>(Phase::kTokenWait)], 0.3);
  EXPECT_NEAR(r.partitionDefect(), 0.0, 1e-12);
  EXPECT_NEAR(r.ranks[0].blocked(), 10.0, 1e-12);
}

TEST(Attribution, OpenEnvelopeExtendsToHorizonAndClampsPastIt) {
  AttributionEngine eng;
  eng.addEvent(mk(Layer::kApp, 'B', 3, "checkpoint", 1.0));  // never closed
  eng.addEvent(mk(Layer::kIo, 'X', 3, "write", 2.0, 100.0)); // runs past end
  const auto r = eng.compute(5.0);
  ASSERT_EQ(r.ranks.size(), 1u);
  EXPECT_EQ(r.ranks[0].rank, 3);
  const auto& s = r.ranks[0].seconds;
  EXPECT_DOUBLE_EQ(s[static_cast<int>(Phase::kCompute)], 1.0);
  EXPECT_DOUBLE_EQ(s[static_cast<int>(Phase::kOther)], 1.0);
  EXPECT_DOUBLE_EQ(s[static_cast<int>(Phase::kWrite)], 3.0);
  EXPECT_NEAR(r.partitionDefect(), 0.0, 1e-12);
}

TEST(Attribution, SinkFinalizesOnceThroughObservability) {
  Observability obs;
  auto sink = std::make_shared<AttributionSink>();
  obs.addSink(sink);
  obs.begin(Layer::kApp, 0, "checkpoint", 0.0);
  obs.complete(Layer::kIo, 0, "write", 1.0, 3.0);
  obs.end(Layer::kApp, 0, "checkpoint", 4.0);
  obs.finalize(4.0);
  ASSERT_TRUE(sink->finalized());
  const auto& r = sink->report();
  EXPECT_DOUBLE_EQ(r.horizon, 4.0);
  EXPECT_DOUBLE_EQ(r.totals[static_cast<int>(Phase::kWrite)], 2.0);
  EXPECT_DOUBLE_EQ(r.blockedSeconds(), 4.0);
  // Re-finalizing at another horizon must not recompute.
  obs.finalize(8.0);
  EXPECT_DOUBLE_EQ(sink->report().horizon, 4.0);
}

TEST(Attribution, ReportExportsJson) {
  AttributionEngine eng;
  eng.addEvent(mk(Layer::kIo, 'X', 1, "send", 0.5, 0.25));
  const auto r = eng.compute(1.0);
  const std::string json = r.toJson();
  EXPECT_NE(json.find("\"horizon_seconds\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"handoff_send\": 0.25"), std::string::npos);
}

// trace_report --attr renders the export, so the export must carry the
// report exactly: every double parses back bit for bit, under the schema
// tag trace_report gates on.
TEST(Attribution, ReportJsonRoundTripsBitForBit) {
  AttributionEngine::Report r;
  r.horizon = 390.72612345678912;
  for (int rank : {0, 7}) {
    AttributionEngine::RankSlice slice;
    slice.rank = rank;
    for (int p = 0; p < kNumPhases; ++p)
      slice.seconds[static_cast<std::size_t>(p)] =
          r.horizon / (3.0 + p + rank) + 1e-13 * p;
    r.ranks.push_back(slice);
  }
  r.totals = {2267484.9461234567, 0.1 + 0.2, 1.0 / 3.0, 0, 1e-300,
              std::nextafter(1.0, 2.0), 4123655.9721, 10101.197, 410.476};
  const auto doc = json::parse(r.toJson());
  ASSERT_TRUE(doc.has_value()) << r.toJson();
  EXPECT_EQ(doc->stringOr("schema", ""), AttributionEngine::kSchemaVersion);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(bits(doc->numberOr("horizon_seconds", -1)), bits(r.horizon));
  const json::Value* totals = doc->find("totals");
  ASSERT_NE(totals, nullptr);
  for (int p = 0; p < kNumPhases; ++p)
    EXPECT_EQ(bits(totals->numberOr(phaseName(static_cast<Phase>(p)), -1)),
              bits(r.totals[static_cast<std::size_t>(p)]))
        << phaseName(static_cast<Phase>(p));
  const json::Value* ranks = doc->find("ranks");
  ASSERT_TRUE(ranks != nullptr && ranks->isArray());
  ASSERT_EQ(ranks->array->size(), r.ranks.size());
  for (std::size_t i = 0; i < r.ranks.size(); ++i) {
    const json::Value& rv = (*ranks->array)[i];
    EXPECT_EQ(rv.numberOr("rank", -1), r.ranks[i].rank);
    for (int p = 0; p < kNumPhases; ++p)
      EXPECT_EQ(bits(rv.numberOr(phaseName(static_cast<Phase>(p)), -1)),
                bits(r.ranks[i].seconds[static_cast<std::size_t>(p)]))
          << "rank " << r.ranks[i].rank << " "
          << phaseName(static_cast<Phase>(p));
  }
}

}  // namespace
}  // namespace bgckpt::obs
