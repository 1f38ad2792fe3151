// Sampled time-resolved telemetry: utilization timeseries for every layer.
//
// The trace/attribution/critpath stack answers "what happened and who
// waited", but not "what was the queue depth / token occupancy / per-server
// bandwidth at time t" — the lens the paper uses for the rbIO/coIO long
// tails (GPFS server imbalance, ION funneling, aggregation buffering).
// This module adds that lens without touching the event stream:
//
//   Probe       lightweight handle a layer publishes (gauge / counter /
//               rate, optionally per-instance: one series per file server,
//               pset, ...). Updates are a single branch on a cached `live`
//               flag until telemetry is attached, so instrumented layers
//               cost nothing in ordinary runs.
//   Telemetry   the registry (owned by Observability). Layers resolve
//               probes once at construction; `--telemetry` flips every
//               probe live and installs a sampling cadence driven by the
//               SchedulerProbe dispatch hook (never by injected events, so
//               figure output stays byte-identical).
//   TelemetrySink  TraceSink adaptor: integrates exact per-rank busy time
//               from the kApp checkpoint envelopes, closes all series at
//               finalize, computes per-series imbalance analytics, and
//               writes the JSON export read by `trace_report --timeline`.
//
// Sampling model: every series is a piecewise-constant level (counters and
// rates accumulate into a cumulative level). Updates integrate the level
// into fixed-width buckets of `dt` simulated seconds (min/mean/max/last
// per bucket); the scheduler-hook cadence closes buckets for idle series
// so a quiet resource still reports its level. Mid-run registration is
// legal: a series simply starts at its first bucket, and exports carry a
// `first` offset instead of leading zeros.
//
// Cross-check invariant: the per-rank busy seconds integrated here from
// the kApp envelope must agree with the AttributionSink's exclusive
// partition (horizon - compute) within one bucket width. Observability::
// finalize runs the check (SIM_CHECK) whenever both sinks are attached,
// tying the sampled view to the exact event view.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/attr.hpp"
#include "obs/trace.hpp"
#include "simcore/scheduler.hpp"

namespace bgckpt::obs {

class Telemetry;

enum class ProbeKind : int { kGauge = 0, kCounter = 1, kRate = 2 };
const char* probeKindName(ProbeKind k);

/// One named timeseries family, possibly multi-instance (instance = file
/// server index, pset index, ...). Obtain via Telemetry::probe(); pointers
/// are stable for the life of the registry.
class Probe {
 public:
  struct Bucket {
    double min = 0;       // lowest level seen while the bucket was open
    double max = 0;       // highest level
    double integral = 0;  // time integral of the level over the bucket
    double last = 0;      // level at bucket close (or now, if still open)
  };

  struct Series {
    double cur = 0;             // current level (cumulative for counters)
    sim::SimTime startT = 0;    // when sampling of this series began
    sim::SimTime lastT = 0;     // integration frontier
    std::int64_t firstBucket = 0;  // global index of buckets[0]
    std::int64_t bucket = 0;       // global index of the open bucket
    std::vector<Bucket> buckets;   // [firstBucket .. bucket]
  };

  // Hot path: a no-op branch until telemetry is attached.
  void set(double v) {
    if (live_) record(0, v, false);
  }
  void set(int instance, double v) {
    if (live_) record(instance, v, false);
  }
  void add(double dv) {
    if (live_) record(0, dv, true);
  }
  void add(int instance, double dv) {
    if (live_) record(instance, dv, true);
  }

  const std::string& name() const { return name_; }
  ProbeKind kind() const { return kind_; }
  int instances() const { return static_cast<int>(series_.size()); }
  bool live() const { return live_; }
  double current(int instance = 0) const { return series_[instance].cur; }
  const Series& seriesAt(int instance) const { return series_[instance]; }

  /// Mean level of one closed-or-open bucket (integral / covered width).
  static double bucketMean(const Series& s, std::size_t i, double dt);

 private:
  friend class Telemetry;
  Probe(Telemetry& owner, std::string name, ProbeKind kind, int instances);
  void record(int instance, double v, bool delta);
  void advance(Series& s, sim::SimTime t);
  void start(Series& s, sim::SimTime t);

  Telemetry& owner_;
  std::string name_;
  ProbeKind kind_;
  bool live_ = false;
  std::vector<Series> series_;
};

/// Probe registry + sampling cadence. Owned by Observability so layers can
/// resolve probes at construction time (before bench flags attach a sink).
class Telemetry {
 public:
  static constexpr double kDefaultDt = 0.25;  // seconds of simulated time
  static constexpr const char* kSchemaVersion = "bgckpt-telemetry-1";

  Telemetry() = default;
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Find-or-create. Kind and instance count must match on reuse
  /// (SIM_CHECK'd); the returned reference is stable.
  Probe& probe(const std::string& name, ProbeKind kind, int instances = 1);
  Probe* find(const std::string& name) const;
  const std::vector<std::unique_ptr<Probe>>& probes() const { return probes_; }

  /// Flip every probe (current and future) live and start bucketing at
  /// `sched.now()` with bucket width `dt` (<=0 picks kDefaultDt).
  void enable(const sim::Scheduler& sched, double dt);
  bool enabled() const { return enabled_; }
  double bucketDt() const { return dt_; }
  sim::SimTime now() const { return sched_ ? sched_->now() : 0.0; }

  /// Scheduler-dispatch hook: tracks the event-queue depth gauge and, on
  /// the sampling cadence, advances every series so idle resources still
  /// close their buckets.
  void tick(sim::SimTime nowT, std::size_t queueDepth);

  /// Integrate every series up to `horizon` (finalize path; idempotent for
  /// a fixed horizon).
  void closeOut(sim::SimTime horizon);
  sim::SimTime horizon() const { return horizon_; }

 private:
  friend class Probe;
  std::vector<std::unique_ptr<Probe>> probes_;  // registration order
  bool enabled_ = false;
  const sim::Scheduler* sched_ = nullptr;
  double dt_ = kDefaultDt;
  double nextSample_ = 0;
  sim::SimTime horizon_ = 0;
  Probe* queueDepth_ = nullptr;  // "sched.queue_depth", created at enable
};

/// Per-series load-imbalance analytics over the bucketized loads (gauge:
/// mean level per bucket; counter/rate: per-bucket delta).
struct ImbalanceStats {
  int instances = 0;
  double totalLoad = 0;
  double maxShare = 0;     // busiest instance's share of the total load
  double maxOverMean = 0;  // skew: busiest / mean (1.0 = perfectly even)
  double jain = 1.0;       // Jain's fairness index: (sum L)^2 / (n sum L^2)
  // Instance-seconds a member sat idle while some peer was active: the
  // "servers waiting on the stragglers" number behind the fig9/fig11 tails.
  double idleWhileBusySeconds = 0;
  int busiest = -1;
};

ImbalanceStats computeImbalance(
    const std::vector<double>& totals,
    const std::vector<std::vector<double>>& bucketLoad, double dt);

/// TraceSink adaptor: kApp envelope integration, finalize-time export, and
/// the attribution cross-check.
class TelemetrySink final : public TraceSink {
 public:
  explicit TelemetrySink(Telemetry& reg) : reg_(&reg) {}

  /// Request JSON export at finalize; an empty path keeps the current one.
  void exportTo(std::string jsonPath);

  void event(const TraceEvent& ev) override;
  void finalize(sim::SimTime horizon) override;
  unsigned layerMask() const override { return layerBit(Layer::kApp); }

  bool finalized() const { return finalized_; }
  /// Exact per-rank checkpoint-envelope seconds (index = rank). Valid any
  /// time; closed against the horizon after finalize().
  const std::vector<double>& rankBusySeconds() const { return busy_; }
  bool sawEnvelopes() const { return sawEnvelopes_; }

  /// Per-series bucket "load" rows as exported (gauge: mean; counter/rate:
  /// delta), aligned to global bucket 0. Valid after finalize().
  std::vector<std::vector<double>> loadMatrix(const Probe& p) const;

  std::string toJson() const;  // valid after finalize()

  /// SIM_CHECK that every rank's sampled busy time matches the exclusive
  /// attribution partition within one bucket width.
  void crossCheckAttribution(const AttributionEngine::Report& report) const;

 private:
  Telemetry* reg_;
  std::string jsonPath_;
  std::vector<double> busy_;
  std::vector<sim::SimTime> open_;  // open envelope start per rank, or -1
  Probe* activeRanks_ = nullptr;    // "app.active_ranks" gauge
  bool sawEnvelopes_ = false;
  bool finalized_ = false;
  sim::SimTime horizon_ = 0;
};

}  // namespace bgckpt::obs
