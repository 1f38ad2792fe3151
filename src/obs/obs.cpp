#include "obs/obs.hpp"

#include "obs/optrace.hpp"

namespace bgckpt::obs {

SchedulerProbe::SchedulerProbe(Observability& obs)
    : obs_(obs),
      events_(obs.metrics().counter("sched.events")),
      roots_(obs.metrics().counter("sched.roots")),
      queueDepthMax_(obs.metrics().gauge("sched.queue_depth.max")) {}

void SchedulerProbe::onDispatch(std::size_t queueDepth) {
  events_.add();
  queueDepthMax_.setMax(static_cast<double>(queueDepth));
}

void SchedulerProbe::onRootSpawned(std::uint64_t rootId, sim::SimTime now) {
  roots_.add();
  obs_.begin(Layer::kScheduler, static_cast<int>(rootId), "root", now);
}

void SchedulerProbe::onRootDone(std::uint64_t rootId, sim::SimTime now) {
  obs_.end(Layer::kScheduler, static_cast<int>(rootId), "root", now);
}

Observability::Observability() = default;

Observability::~Observability() {
  const sim::SimTime horizon = observedSched_ ? observedSched_->now() : 0.0;
  releaseScheduler();
  // Aggregating sinks (attribution, op tracing) must always get their
  // finalize, even without a metrics export request; finalize() is
  // idempotent, so a stack already finalized by hand skips the work.
  finalize(horizon);
}

void Observability::addSink(std::shared_ptr<TraceSink> sink) {
  if (!sink) return;
  mask_ |= sink->layerMask();
  sinks_.push_back(std::move(sink));
}

void Observability::emit(const TraceEvent& ev) {
  const unsigned bit = layerBit(ev.layer);
  for (const auto& sink : sinks_)
    if (sink->layerMask() & bit) sink->event(ev);
}

void Observability::begin(Layer layer, int tid, const char* name,
                          sim::SimTime ts) {
  if (!tracing(layer)) return;
  TraceEvent ev;
  ev.layer = layer;
  ev.phase = 'B';
  ev.tid = tid;
  ev.name = name;
  ev.ts = ts;
  emit(ev);
}

void Observability::end(Layer layer, int tid, const char* name,
                        sim::SimTime ts) {
  if (!tracing(layer)) return;
  TraceEvent ev;
  ev.layer = layer;
  ev.phase = 'E';
  ev.tid = tid;
  ev.name = name;
  ev.ts = ts;
  emit(ev);
}

void Observability::complete(Layer layer, int tid, const char* name,
                             sim::SimTime start, sim::SimTime end) {
  if (!tracing(layer)) return;
  TraceEvent ev;
  ev.layer = layer;
  ev.phase = 'X';
  ev.tid = tid;
  ev.name = name;
  ev.ts = start;
  ev.dur = end - start;
  emit(ev);
}

void Observability::completeBytes(Layer layer, int tid, const char* name,
                                  sim::SimTime start, sim::SimTime end,
                                  sim::Bytes bytes) {
  if (!tracing(layer)) return;
  TraceEvent ev;
  ev.layer = layer;
  ev.phase = 'X';
  ev.tid = tid;
  ev.name = name;
  ev.ts = start;
  ev.dur = end - start;
  ev.hasBytes = true;
  ev.bytes = bytes;
  emit(ev);
}

void Observability::message(int src, int dst, sim::Bytes bytes,
                            sim::SimTime sendTime, sim::SimTime deliverTime) {
  if (!metricsJsonPath_.empty())
    metrics_.recordPair(src, dst, bytes, deliverTime - sendTime);
  if (!tracing(Layer::kMpi)) return;
  TraceEvent ev;
  ev.layer = Layer::kMpi;
  ev.phase = 'X';
  ev.tid = src;
  ev.name = "message";
  ev.ts = sendTime;
  ev.dur = deliverTime - sendTime;
  ev.hasBytes = true;
  ev.bytes = bytes;
  ev.src = src;
  ev.dst = dst;
  emit(ev);
}

void Observability::counterSample(Layer layer, const char* name,
                                  sim::SimTime ts, double value) {
  if (!tracing(layer)) return;
  TraceEvent ev;
  ev.layer = layer;
  ev.phase = 'C';
  ev.tid = 0;
  ev.name = name;
  ev.ts = ts;
  ev.hasValue = true;
  ev.value = value;
  emit(ev);
}

void Observability::observeScheduler(sim::Scheduler& sched) {
  if (schedProbe_) return;
  schedProbe_ = std::make_unique<SchedulerProbe>(*this);
  observedSched_ = &sched;
  sched.setHooks(schedProbe_.get());
}

void Observability::releaseScheduler() {
  if (observedSched_) {
    observedSched_->setHooks(nullptr);
    observedSched_ = nullptr;
  }
  schedProbe_.reset();
}

OpTraceSink& Observability::attachOpTrace(std::uint32_t sampleEvery,
                                          std::string jsonPath) {
  if (!opTracer_) {
    opTracer_ = std::make_unique<OpTracer>(
        sampleEvery > 0 ? sampleEvery : OpTracer::kDefaultSampleEvery);
    opTraceSink_ = std::make_shared<OpTraceSink>(*opTracer_);
    addSink(opTraceSink_);
  }
  if (!jsonPath.empty()) opTraceSink_->exportTo(std::move(jsonPath));
  return *opTraceSink_;
}

void Observability::finalize(sim::SimTime horizon) {
  if (finalized_) {
    // Already derived and finalized (manual call before the exportOnDestroy
    // teardown, say): deriving again would divide busy-seconds by a new
    // horizon and double-count nothing but still overwrite — skip, just
    // re-flush so late events reach disk.
    flush();
    return;
  }
  finalized_ = true;
  if (horizon > 0) {
    // Derive `<prefix>.utilization` from accumulated busy seconds: mean
    // fraction of the horizon each link/server/stream-slot was busy.
    for (const auto& [name, g] : metrics_.gauges()) {
      const auto pos = name.rfind(".busy_seconds");
      if (pos == std::string::npos ||
          pos + 13 != name.size())
        continue;
      const std::string prefix = name.substr(0, pos);
      const double links = metrics_.gauge(prefix + ".links").value();
      if (links <= 0) continue;
      metrics_.gauge(prefix + ".utilization")
          .set(g.value() / (horizon * links));
    }
    metrics_.gauge("sim.horizon_seconds").set(horizon);
  }
  if (!metricsJsonPath_.empty())
    writeArtifact(metricsJsonPath_, metrics_.toJson());
  for (const auto& sink : sinks_) sink->finalize(horizon);
  flush();
}

void Observability::flush() {
  for (const auto& sink : sinks_) sink->flush();
}

void Observability::exportOnDestroy(std::string metricsJsonPath) {
  metricsJsonPath_ = std::move(metricsJsonPath);
}

}  // namespace bgckpt::obs
