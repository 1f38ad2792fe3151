#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/optrace.hpp"
#include "simcore/scheduler.hpp"
#include "simcore/task.hpp"

namespace bgckpt::obs {
namespace {

TraceEvent span(Layer layer, char phase, int tid, const char* name,
                double ts) {
  TraceEvent ev;
  ev.layer = layer;
  ev.phase = phase;
  ev.tid = tid;
  ev.name = name;
  ev.ts = ts;
  return ev;
}

TEST(Observability, MaskGatesEmission) {
  // Declared before obs: ChromeTraceSink writes the closing "]" to the
  // stream from its destructor, so the stream must outlive the sink.
  std::ostringstream chrome;
  Observability obs;
  EXPECT_FALSE(obs.tracing(Layer::kIo));  // no sinks at all

  // The op-trace sink only hooks finalize, so it wants no layer.
  EXPECT_EQ(obs.attachOpTrace().layerMask(), 0u);
  EXPECT_FALSE(obs.tracing(Layer::kIo));  // a mask-0 sink turns on no layer

  obs.addSink(std::make_shared<ChromeTraceSink>(chrome));
  for (int l = 0; l < kNumLayers; ++l)
    EXPECT_TRUE(obs.tracing(static_cast<Layer>(l)));
}

TEST(ChromeTraceSink, OutputIsValidJsonWithBalancedSpans) {
  std::ostringstream chrome;
  {
    ChromeTraceSink sink(chrome);
    sink.event(span(Layer::kIo, 'B', 3, "commit", 1.0));
    TraceEvent write = span(Layer::kIo, 'X', 3, "write", 1.25);
    write.dur = 0.5;
    write.hasBytes = true;
    write.bytes = 1 << 20;
    sink.event(write);
    sink.event(span(Layer::kIo, 'E', 3, "commit", 2.0));
    EXPECT_EQ(sink.eventsWritten(), 3u);
  }  // destructor closes the JSON array

  const auto doc = json::parse(chrome.str());
  ASSERT_TRUE(doc.has_value()) << chrome.str();
  ASSERT_TRUE(doc->isArray());

  int begins = 0, ends = 0, completes = 0, metadata = 0;
  for (const auto& ev : *doc->array) {
    const std::string ph = ev.stringOr("ph", "?");
    if (ph == "B") ++begins;
    if (ph == "E") ++ends;
    if (ph == "X") ++completes;
    if (ph == "M") ++metadata;
  }
  EXPECT_EQ(begins, ends);
  EXPECT_EQ(begins, 1);
  EXPECT_EQ(completes, 1);
  EXPECT_GE(metadata, 2);  // process_name + thread_name at minimum

  // The X event carries microseconds and its byte count in args.
  for (const auto& ev : *doc->array) {
    if (ev.stringOr("ph", "") != "X") continue;
    EXPECT_DOUBLE_EQ(ev.numberOr("ts", 0), 1.25e6);
    EXPECT_DOUBLE_EQ(ev.numberOr("dur", 0), 0.5e6);
    const json::Value* args = ev.find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_DOUBLE_EQ(args->numberOr("bytes", 0), double(1 << 20));
  }
}

TEST(ChromeTraceSink, CloseIsIdempotent) {
  std::ostringstream chrome;
  ChromeTraceSink sink(chrome);
  sink.event(span(Layer::kApp, 'X', 0, "checkpoint", 0));
  sink.close();
  sink.close();
  sink.event(span(Layer::kApp, 'X', 0, "late", 9));  // dropped after close
  EXPECT_EQ(sink.eventsWritten(), 1u);
  ASSERT_TRUE(json::parse(chrome.str()).has_value());
}

// A full disk accepts the open and fails the flush, so only a checked close
// (writeArtifact) or a stream check after the flush (ChromeTraceSink)
// catches it: each lands in failedWrites() once.
TEST(ExportWrites, FullDiskIsListedInFailedWrites) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  EXPECT_FALSE(writeArtifact("/dev/full", "{}\n"));

  auto sink = ChromeTraceSink::toFile("/dev/full");
  sink->event(span(Layer::kApp, 'X', 0, "checkpoint", 0));
  sink->finalize(1.0);
  sink->close();
  const auto failed = failedWrites();
  EXPECT_EQ(std::count(failed.begin(), failed.end(), "/dev/full"), 2);
}

TEST(MetricsRegistry, JsonExportRoundTrip) {
  MetricsRegistry reg;
  reg.counter("fs.creates").add(3);
  reg.gauge("net.util").set(0.5);
  auto& h = reg.histogram("fs.write.latency", 0.0, 1.0, 10);
  h.add(0.05);
  h.add(0.15);
  reg.recordPair(1, 2, 4096, 0.001);
  reg.recordPair(1, 2, 4096, 0.002);

  const auto doc = json::parse(reg.toJson());
  ASSERT_TRUE(doc.has_value()) << reg.toJson();
  EXPECT_DOUBLE_EQ(doc->find("counters")->numberOr("fs.creates", 0), 3.0);
  EXPECT_DOUBLE_EQ(doc->find("gauges")->numberOr("net.util", 0), 0.5);
  const json::Value* hist =
      doc->find("histograms")->find("fs.write.latency");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->numberOr("count", 0), 2.0);
  EXPECT_DOUBLE_EQ(doc->numberOr("mpiPairsTotal", 0), 1.0);
  const json::Value* top = doc->find("mpiTopPairs");
  ASSERT_TRUE(top && top->isArray());
  ASSERT_EQ(top->array->size(), 1u);
  EXPECT_DOUBLE_EQ((*top->array)[0].numberOr("bytes", 0), 8192.0);
  EXPECT_DOUBLE_EQ((*top->array)[0].numberOr("count", 0), 2.0);
}

TEST(Observability, FinalizeDerivesUtilization) {
  Observability obs;
  obs.metrics().gauge("net.ion.busy_seconds").add(5.0);
  obs.metrics().gauge("net.ion.links").set(2.0);
  obs.finalize(10.0);
  EXPECT_DOUBLE_EQ(obs.metrics().gauge("net.ion.utilization").value(), 0.25);
  EXPECT_DOUBLE_EQ(obs.metrics().gauge("sim.horizon_seconds").value(), 10.0);
}

TEST(Observability, FinalizeIsIdempotent) {
  struct CountingSink final : TraceSink {
    int finalizes = 0;
    void event(const TraceEvent&) override {}
    void finalize(sim::SimTime) override { ++finalizes; }
  };
  Observability obs;
  auto sink = std::make_shared<CountingSink>();
  obs.addSink(sink);
  obs.metrics().gauge("net.ion.busy_seconds").add(5.0);
  obs.metrics().gauge("net.ion.links").set(2.0);
  obs.finalize(10.0);
  EXPECT_EQ(sink->finalizes, 1);
  EXPECT_DOUBLE_EQ(obs.metrics().gauge("net.ion.utilization").value(), 0.25);
  // A second call (a larger horizon, say the destructor's re-run) must not
  // re-derive: utilization and the horizon gauge keep their first values.
  obs.finalize(20.0);
  EXPECT_DOUBLE_EQ(obs.metrics().gauge("net.ion.utilization").value(), 0.25);
  EXPECT_DOUBLE_EQ(obs.metrics().gauge("sim.horizon_seconds").value(), 10.0);
  EXPECT_EQ(sink->finalizes, 1);
}

TEST(Observability, SchedulerProbeCountsRootsAndEvents) {
  sim::Scheduler sched;
  Observability obs;
  obs.observeScheduler(sched);
  auto body = [&]() -> sim::Task<> { co_await sched.delay(1.0); };
  sched.spawn(body());
  sched.spawn(body());
  sched.run();
  obs.releaseScheduler();
  EXPECT_EQ(obs.metrics().counter("sched.roots").value(), 2u);
  EXPECT_GT(obs.metrics().counter("sched.events").value(), 0u);
}

}  // namespace
}  // namespace bgckpt::obs
