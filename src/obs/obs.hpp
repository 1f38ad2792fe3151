// Observability hub: one per simulated stack.
//
// Owns the MetricsRegistry and a set of TraceSinks, and caches the OR of
// the sinks' layer masks so producers can guard emission with a single
// bit test: `if (obs && obs->tracing(Layer::kFilesystem)) ...`. Every
// instrumented layer (scheduler, torus/ION, storage fabric, filesystem,
// MPI runtime, checkpoint strategies) takes an optional `Observability*`
// and is exactly as fast as before when handed nullptr.
//
// iolib::SimStack always attaches prof::IoCountsSink (profiling/profile.hpp),
// which keeps per-op totals in O(1) space. Everything that grows with the
// run is attached only by its reader: per-op records (prof::IoProfileSink)
// by the benches that plot them, a ChromeTraceSink when the user asks for a
// trace file, and the MPI pair matrix once exportOnDestroy has a path.
#pragma once

#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simcore/scheduler.hpp"

namespace bgckpt::obs {

class Observability;
class CritPathRecorder;
class Telemetry;
class TelemetrySink;
class OpTracer;
class OpTraceSink;

/// sim::SchedulerHooks implementation: counts dispatched events, tracks the
/// event-queue high-water mark, and emits one span per root task on the
/// scheduler layer (tid = root id). When a CritPathRecorder is attached it
/// also forwards every causal scheduling edge (the scheduler caches
/// wantsScheduleEvents() at setHooks time, so the forwarding branch costs
/// nothing until Observability::attachCritPath re-installs the hooks).
class SchedulerProbe final : public sim::SchedulerHooks {
 public:
  explicit SchedulerProbe(Observability& obs);
  void onDispatch(sim::SimTime now, std::size_t queueDepth) override;
  void onRootSpawned(std::uint64_t rootId, sim::SimTime now) override;
  void onRootDone(std::uint64_t rootId, sim::SimTime now) override;
  bool wantsScheduleEvents() const override { return critPath_ != nullptr; }
  void onEventScheduled(std::uint64_t seq, std::uint64_t parentSeq,
                        sim::SimTime when, sim::WakeKind kind,
                        const char* label) override;

  void setCritPath(CritPathRecorder* critPath) { critPath_ = critPath; }
  /// Hand the probe a live Telemetry registry: every dispatch then drives
  /// the sampling cadence (queue-depth gauge + bucket close-out). Nullptr
  /// (the default) keeps dispatch at one extra branch.
  void setTelemetry(Telemetry* telemetry) { telemetry_ = telemetry; }

 private:
  Observability& obs_;
  Counter& events_;
  Counter& roots_;
  Gauge& queueDepthMax_;
  CritPathRecorder* critPath_ = nullptr;
  Telemetry* telemetry_ = nullptr;
};

class Observability {
 public:
  Observability();  // out of line: members of forward-declared types
  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;
  ~Observability();

  /// Attach a sink; its layerMask() joins the cached tracing mask.
  void addSink(std::shared_ptr<TraceSink> sink);

  /// True when some attached sink wants events from `layer`.
  bool tracing(Layer layer) const { return (mask_ & layerBit(layer)) != 0; }

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Fan an event out to every sink whose mask covers its layer.
  void emit(const TraceEvent& ev);

  // ------- typed emission helpers (no-ops unless a sink wants the layer) --
  void begin(Layer layer, int tid, const char* name, sim::SimTime ts);
  void end(Layer layer, int tid, const char* name, sim::SimTime ts);
  void complete(Layer layer, int tid, const char* name, sim::SimTime start,
                sim::SimTime end);
  void completeBytes(Layer layer, int tid, const char* name,
                     sim::SimTime start, sim::SimTime end, sim::Bytes bytes);
  /// MPI message delivery: complete event on the sender's row, plus the
  /// per-pair metrics entry once exportOnDestroy has a path (only the
  /// metrics export reads the pair matrix).
  void message(int src, int dst, sim::Bytes bytes, sim::SimTime sendTime,
               sim::SimTime deliverTime);
  void counterSample(Layer layer, const char* name, sim::SimTime ts,
                     double value);

  /// Install a SchedulerProbe on `sched` (kept alive by this object).
  /// Safe to call more than once; only the first call installs.
  void observeScheduler(sim::Scheduler& sched);
  /// Remove the probe before the scheduler goes away (SimStack's teardown
  /// order already guarantees this; tests use it directly).
  void releaseScheduler();

  /// Start recording the causal event graph of `sched` (installing the
  /// scheduler probe if necessary) and register the recorder as a sink so
  /// it finalizes/exports with everything else. `jsonPath` (optional)
  /// receives the critical-path report at finalize. Returns the recorder
  /// for in-process queries; repeated calls return the existing one.
  CritPathRecorder& attachCritPath(sim::Scheduler& sched,
                                   std::string jsonPath = "");
  CritPathRecorder* critPath() const { return critPath_.get(); }

  /// The sampled-telemetry probe registry (obs/telemetry.hpp). Layers
  /// resolve Probe handles here at construction; probes stay dormant (one
  /// branch per update) until attachTelemetry flips them live.
  Telemetry& telemetry();

  /// Start sampled telemetry on `sched`: enables the registry at bucket
  /// width `bucketDt` (<=0 = default), wires the sampling cadence into the
  /// scheduler probe, and registers a TelemetrySink so series close and
  /// export (optional JSON path) at finalize. Repeated calls return the
  /// existing sink. Finalize cross-checks the sampled busy time against any
  /// attached AttributionSink.
  TelemetrySink& attachTelemetry(sim::Scheduler& sched, double bucketDt = 0.0,
                                 std::string jsonPath = "");
  TelemetrySink* telemetrySink() const { return telemetrySink_.get(); }

  /// Start per-request causal tracing (obs/optrace.hpp): creates the
  /// OpTracer (1-in-`sampleEvery` waterfall retention, `tailN` slowest
  /// always kept) and registers an OpTraceSink so the tracer closes out and
  /// exports its JSON (optional path) at finalize. Repeated calls return
  /// the existing sink; a non-empty path on a later call updates the
  /// export destination.
  OpTraceSink& attachOpTrace(std::uint32_t sampleEvery = 0, int tailN = -1,
                             std::string jsonPath = "");
  /// The tracer for strategy-level minting; nullptr until attachOpTrace.
  /// Layers never call this — they receive contexts by value.
  OpTracer* opTracer() const { return opTracer_.get(); }
  OpTraceSink* opTraceSink() const { return opTraceSink_.get(); }

  /// Convert accumulated busy-seconds gauges into utilization gauges over
  /// [0, horizon], write the metrics export (if requested), and finalize +
  /// flush all sinks, which write their own exports. Every export goes
  /// through writeArtifact, so a failed one is listed by failedWrites().
  /// Idempotent: the first call wins (later calls — e.g. the destructor's
  /// after a manual finalize — only re-flush, so gauges are never derived
  /// twice).
  void finalize(sim::SimTime horizon);

  /// Write the metrics JSON to `metricsJsonPath` at finalize; the destructor
  /// finalizes at scheduler.now() if nothing did earlier. Used by
  /// bench/common so every harness exports on exit without bespoke teardown
  /// code. With a path set, message() also fills the MPI pair matrix from
  /// then on.
  void exportOnDestroy(std::string metricsJsonPath);

 private:
  MetricsRegistry metrics_;
  std::vector<std::shared_ptr<TraceSink>> sinks_;
  unsigned mask_ = 0;
  std::unique_ptr<SchedulerProbe> schedProbe_;
  sim::Scheduler* observedSched_ = nullptr;
  std::shared_ptr<CritPathRecorder> critPath_;
  std::unique_ptr<Telemetry> telemetry_;
  std::shared_ptr<TelemetrySink> telemetrySink_;
  std::unique_ptr<OpTracer> opTracer_;
  std::shared_ptr<OpTraceSink> opTraceSink_;
  bool finalized_ = false;
  std::string metricsJsonPath_;
};

/// RAII span for one I/O operation on the kIo layer: emits a complete
/// event at stop() (with bytes) or at destruction (without), so an op
/// abandoned by an exception or early co_return is still recorded instead
/// of silently dropped. Null `obs` disables it.
class IoOpSpan {
 public:
  IoOpSpan(Observability* obs, const sim::Scheduler& sched, int rank,
           const char* name)
      : obs_(obs), sched_(sched), rank_(rank), name_(name),
        start_(sched.now()) {}
  IoOpSpan(const IoOpSpan&) = delete;
  IoOpSpan& operator=(const IoOpSpan&) = delete;
  ~IoOpSpan() {
    if (!done_ && obs_)
      obs_->complete(Layer::kIo, rank_, name_, start_, sched_.now());
  }

  void stop(sim::Bytes bytes = 0) {
    done_ = true;
    if (obs_)
      obs_->completeBytes(Layer::kIo, rank_, name_, start_, sched_.now(),
                          bytes);
  }

 private:
  Observability* obs_;
  const sim::Scheduler& sched_;
  int rank_;
  const char* name_;
  sim::SimTime start_;
  bool done_ = false;
};

}  // namespace bgckpt::obs
