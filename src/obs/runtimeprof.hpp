// Runtime execution profiler: wall-clock observability for
// sim::parallelFor regions (the figure-point prefetch).
//
// Every other obs layer records *simulated* time. This one records *real*
// time — where a threaded run actually spends its wall clock: which
// parallelFor job (i.e. which fig5 point) pins the region's makespan, and
// how each point's wall compares across runs. It implements the
// sim::RuntimeObserver seam from simcore/parallel.hpp; simcore itself
// never reads a clock, so determinism and figure stdout are untouched —
// the profiler observes the execution, it never schedules events.
//
// Deliberately process-global rather than hung off the per-stack
// Observability hub: real time cuts across stacks (one worker thread
// interleaves many simulations under prefetchSims), so there is exactly
// one profiler per process, installed with install() and exported with
// writeJson(). bench/common wires it to --runtime-profile[=FILE].
//
// Memory is bounded by construction: at most kMaxRegions regions are
// kept; later ones are counted as dropped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "simcore/parallel.hpp"

namespace bgckpt::obs {

/// JSON schema tag for the exported profile.
inline constexpr const char* kRuntimeProfSchemaVersion = "bgckpt-runtimeprof-1";

/// One recorded parallelFor region.
struct ParallelRegionProfile {
  std::uint64_t id = 0;
  std::size_t jobs = 0;
  unsigned threads = 0;
  std::uint64_t wallNs = 0;
  struct Job {
    std::uint64_t ns = 0;
    unsigned worker = 0;
    std::string label;  ///< point label when the caller provided one
  };
  std::vector<Job> perJob;
};

/// A labelled measurement fed from bench perfRecord (one per figure
/// point), so serial runs — which never enter parallelFor — still produce
/// a per-point wall table for trace_report --runtime --diff.
struct PointRecord {
  std::string label;
  double wallSeconds = 0.0;
  std::uint64_t events = 0;
  unsigned threads = 0;
};

class RuntimeProfiler final : public sim::RuntimeObserver {
 public:
  /// Keep at most this many parallelFor regions.
  static constexpr std::size_t kMaxRegions = 256;

  RuntimeProfiler();
  ~RuntimeProfiler() override;

  RuntimeProfiler(const RuntimeProfiler&) = delete;
  RuntimeProfiler& operator=(const RuntimeProfiler&) = delete;

  /// Install as the process-wide sim::RuntimeObserver / remove again.
  /// uninstall() only clears the hook if this profiler still owns it.
  void install();
  void uninstall();

  /// Labels for the jobs of the *next* parallelFor region (job i gets
  /// labels[i]) — bench/common calls this right before prefetchSims fans
  /// out, so the region's job table names figure points, not indices.
  void setPointLabels(std::vector<std::string> labels);

  /// Record one figure point (called from bench perfRecord).
  void recordPoint(const std::string& label, double wallSeconds,
                   std::uint64_t events, unsigned threads);

  // sim::RuntimeObserver ----------------------------------------------------
  void parallelForBegin(std::uint64_t id, std::size_t jobs,
                        unsigned threads) noexcept override;
  void jobBegin(std::uint64_t id, std::size_t job,
                unsigned worker) noexcept override;
  void jobEnd(std::uint64_t id, std::size_t job,
              unsigned worker) noexcept override;
  void parallelForEnd(std::uint64_t id) noexcept override;

  /// Export the profile as JSON (schema bgckpt-runtimeprof-1). Returns
  /// false on I/O failure, including a failed final flush.
  bool writeJson(const std::string& path) const;

  // Introspection for tests and reports.
  const std::vector<std::unique_ptr<ParallelRegionProfile>>& regions() const {
    return regions_;
  }
  const std::vector<PointRecord>& points() const { return points_; }

 private:
  struct RegionState;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ParallelRegionProfile>> regions_;
  std::vector<std::unique_ptr<RegionState>> liveRegions_;
  std::vector<PointRecord> points_;
  std::vector<std::string> pendingLabels_;
  std::uint64_t droppedRegions_ = 0;
  bool installed_ = false;
};

}  // namespace bgckpt::obs
