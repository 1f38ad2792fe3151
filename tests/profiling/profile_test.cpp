#include "profiling/profile.hpp"

#include <gtest/gtest.h>

#include "obs/obs.hpp"

namespace bgckpt::prof {
namespace {

TEST(IoProfile, EnvelopeSpansFirstToLast) {
  IoProfile p;
  p.record(0, Op::kCreate, 1.0, 2.0);
  p.record(0, Op::kWrite, 3.0, 7.0, 100);
  p.record(1, Op::kWrite, 0.5, 1.0, 50);
  auto env = p.perRankEnvelope(3);
  ASSERT_EQ(env.size(), 3u);
  EXPECT_DOUBLE_EQ(env[0], 6.0);  // 7.0 - 1.0
  EXPECT_DOUBLE_EQ(env[1], 0.5);
  EXPECT_DOUBLE_EQ(env[2], 0.0);  // no records
}

TEST(IoProfile, BusySumsDurations) {
  IoProfile p;
  p.record(0, Op::kCreate, 1.0, 2.0);
  p.record(0, Op::kWrite, 5.0, 6.5);
  auto busy = p.perRankBusy(1);
  EXPECT_DOUBLE_EQ(busy[0], 2.5);
}

TEST(IoProfile, CountersByOp) {
  IoProfile p;
  p.record(0, Op::kWrite, 0, 1, 100);
  p.record(1, Op::kWrite, 0, 1, 200);
  p.record(2, Op::kSend, 0, 1, 999);
  EXPECT_EQ(p.opCount(Op::kWrite), 2u);
  EXPECT_EQ(p.totalBytes(Op::kWrite), 300u);
  EXPECT_EQ(p.totalBytes(Op::kSend), 999u);
  EXPECT_EQ(p.opCount(Op::kClose), 0u);
  EXPECT_DOUBLE_EQ(p.counts().busySeconds(Op::kWrite), 2.0);
}

TEST(IoProfile, ActivityTimelineCountsOverlaps) {
  IoProfile p;
  p.record(0, Op::kWrite, 0.0, 2.0);   // bins 0,1
  p.record(1, Op::kWrite, 1.0, 3.0);   // bins 1,2
  p.record(2, Op::kSend, 0.0, 10.0);   // different op, ignored
  auto timeline = p.activityTimeline(Op::kWrite, 1.0, 4.0);
  ASSERT_EQ(timeline.size(), 4u);
  EXPECT_EQ(timeline[0], 1);
  EXPECT_EQ(timeline[1], 2);
  EXPECT_EQ(timeline[2], 1);
  EXPECT_EQ(timeline[3], 0);
}

TEST(IoProfile, OutOfRangeRanksIgnoredInAggregates) {
  IoProfile p;
  p.record(10, Op::kWrite, 0, 1);
  auto env = p.perRankEnvelope(2);
  EXPECT_DOUBLE_EQ(env[0], 0.0);
  EXPECT_DOUBLE_EQ(env[1], 0.0);
}

TEST(IoProfile, OpNames) {
  EXPECT_STREQ(opName(Op::kCreate), "create");
  EXPECT_STREQ(opName(Op::kSend), "send");
  EXPECT_STREQ(opName(Op::kOther), "other");
}

TEST(IoProfile, ActivityTimelineEmptyProfile) {
  IoProfile p;
  auto timeline = p.activityTimeline(Op::kWrite, 1.0, 4.0);
  ASSERT_EQ(timeline.size(), 4u);
  for (int c : timeline) EXPECT_EQ(c, 0);
}

TEST(IoProfile, ActivityTimelineZeroWidthBinsIsEmpty) {
  IoProfile p;
  p.record(0, Op::kWrite, 0.0, 1.0);
  EXPECT_TRUE(p.activityTimeline(Op::kWrite, 0.0, 4.0).empty());
  EXPECT_TRUE(p.activityTimeline(Op::kWrite, -1.0, 4.0).empty());
  EXPECT_TRUE(p.activityTimeline(Op::kWrite, 1.0, 0.0).empty());
}

TEST(IoProfile, ActivityTimelineClampsRecordsStraddlingHorizon) {
  IoProfile p;
  p.record(0, Op::kWrite, 2.5, 100.0);  // runs far past the horizon
  auto timeline = p.activityTimeline(Op::kWrite, 1.0, 4.0);
  ASSERT_EQ(timeline.size(), 4u);
  EXPECT_EQ(timeline[0], 0);
  EXPECT_EQ(timeline[1], 0);
  EXPECT_EQ(timeline[2], 1);
  EXPECT_EQ(timeline[3], 1);
}

TEST(OpFromName, RoundTripsAndRejectsPhaseNames) {
  for (const Op op : {Op::kCreate, Op::kOpen, Op::kWrite, Op::kClose,
                      Op::kSend, Op::kRecv, Op::kOther}) {
    const auto back = opFromName(opName(op));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, op);
  }
  EXPECT_FALSE(opFromName("handoff").has_value());
  EXPECT_FALSE(opFromName("commit").has_value());
  EXPECT_FALSE(opFromName("").has_value());
}

TEST(IoProfileSink, ReplaysIoCompleteEventsOnly) {
  IoProfile p;
  IoProfileSink sink(p);
  EXPECT_EQ(sink.layerMask(), obs::layerBit(obs::Layer::kIo));

  obs::TraceEvent write;
  write.layer = obs::Layer::kIo;
  write.phase = 'X';
  write.tid = 5;
  write.name = "write";
  write.ts = 1.0;
  write.dur = 2.0;
  write.hasBytes = true;
  write.bytes = 4096;
  sink.event(write);

  obs::TraceEvent phase = write;  // B/E phase spans are not op records
  phase.phase = 'B';
  phase.name = "commit";
  sink.event(phase);

  obs::TraceEvent unknown = write;  // kIo 'X' with a non-op name
  unknown.name = "aggregate";
  sink.event(unknown);

  ASSERT_EQ(p.records().size(), 1u);
  EXPECT_EQ(p.records()[0].rank, 5);
  EXPECT_EQ(p.records()[0].op, Op::kWrite);
  EXPECT_DOUBLE_EQ(p.records()[0].end, 3.0);
  EXPECT_EQ(p.records()[0].bytes, 4096u);
}

}  // namespace
}  // namespace bgckpt::prof
