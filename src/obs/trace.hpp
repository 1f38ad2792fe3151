// Trace event model and sinks.
//
// Every instrumented layer of the simulated stack emits TraceEvents through
// an Observability hub (obs.hpp). A sink decides what to do with them:
//
//  * ChromeTraceSink - streams trace_event-format JSON (one "process" per
//                      simulated layer, one "thread" per rank) loadable in
//                      Perfetto / chrome://tracing and read back, one event
//                      per line, by tools/trace_report.
//
// Conventions: `ts`/`dur` are simulated seconds (the Chrome stream converts
// to microseconds, as the trace_event spec requires); `tid` is the rank (or
// root-task id for scheduler spans); span begin/end events ('B'/'E') must
// nest per (layer, tid); ops with a known duration at emit time use
// complete events ('X').
#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "simcore/units.hpp"

namespace bgckpt::obs {

/// Write `text` to `path`, replacing the file: the one writer of every obs
/// export. Returns false when the file cannot be opened, written or closed
/// (a full disk fails at the close that flushes the tail), and remembers
/// the path for failedWrites().
bool writeArtifact(const std::string& path, std::string_view text);

/// Every path an obs export failed to write in this process, in order:
/// writeArtifact failures plus ChromeTraceSink streams found bad. Exports
/// run at finalize, often inside a stack's destructor, so this is how a
/// harness learns of a lost export before it picks its exit code.
/// Thread-safe (concurrent stacks export from worker threads).
std::vector<std::string> failedWrites();

/// One Chrome-trace "process" per simulated layer of the stack.
enum class Layer : int {
  kScheduler = 0,  // discrete-event kernel: root-task spans
  kNetwork = 1,    // torus + ION forwarding
  kStorage = 2,    // file servers + DDN arrays
  kFilesystem = 3, // GPFS/PVFS client-visible operations
  kMpi = 4,        // simulated MPI messages
  kIo = 5,         // checkpoint library ops + rbIO phase spans
  kApp = 6,        // per-rank application spans (checkpoint envelope)
};
inline constexpr int kNumLayers = 7;

const char* layerName(Layer layer);

constexpr unsigned layerBit(Layer layer) {
  return 1u << static_cast<unsigned>(layer);
}
inline constexpr unsigned kAllLayers = (1u << kNumLayers) - 1;

struct TraceEvent {
  Layer layer = Layer::kApp;
  char phase = 'X';  // 'B' begin, 'E' end, 'X' complete, 'C' counter
  int tid = 0;       // rank (or root-task id on the scheduler layer)
  const char* name = "";  // must point at storage outliving the emit call
  sim::SimTime ts = 0;    // seconds of simulated time
  sim::Duration dur = 0;  // 'X' only
  // Optional args (negative / hasX=false means "absent").
  bool hasBytes = false;
  sim::Bytes bytes = 0;
  int src = -1;  // mpi message source rank
  int dst = -1;  // mpi message destination rank
  bool hasValue = false;
  double value = 0;  // 'C' counter sample
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void event(const TraceEvent& ev) = 0;
  virtual void flush() {}
  /// End of run: the horizon is the final simulated time. Sinks that
  /// aggregate (attribution, op tracing) finish their computation and
  /// write any requested exports here. Called exactly once, before the
  /// final flush(), by Observability::finalize.
  virtual void finalize(sim::SimTime /*horizon*/) {}
  /// OR of layerBit() for the layers this sink consumes. Producers skip
  /// emission entirely when no attached sink wants their layer.
  virtual unsigned layerMask() const { return kAllLayers; }
};

/// Streams Chrome trace_event JSON: an array with one trace_event object
/// per line and process / thread metadata emitted lazily the first time a
/// layer or (layer, rank) appears. A stream that ends before its closing
/// `]` (a run aborted by a SimChecker violation) is still a valid trace:
/// the trace_event format allows the missing bracket.
class ChromeTraceSink final : public TraceSink {
 public:
  /// Borrow a stream owned by the caller (tests pass ostringstreams).
  explicit ChromeTraceSink(std::ostream& chrome);
  /// Own a freshly opened file stream; throws std::runtime_error on failure.
  static std::unique_ptr<ChromeTraceSink> toFile(const std::string& path);
  ~ChromeTraceSink() override;

  void event(const TraceEvent& ev) override;
  void flush() override;
  /// Flush and check the stream, so a stack finalized before its harness
  /// exits reports a failed trace through failedWrites() in time.
  void finalize(sim::SimTime horizon) override;
  /// Terminate the JSON array and check the stream. Idempotent; called by
  /// the destructor.
  void close();

  std::uint64_t eventsWritten() const { return eventsWritten_; }

 private:
  ChromeTraceSink(std::unique_ptr<std::ostream> chrome, std::string path);
  /// Record a bad file stream in failedWrites(), once per sink.
  void checkStream();
  void ensureMetadata(Layer layer, int tid);
  void writeSeparator();

  std::unique_ptr<std::ostream> owned_;
  std::ostream* chrome_ = nullptr;
  // File path when the sink owns its stream (toFile); empty otherwise.
  std::string path_;
  bool failed_ = false;
  bool anyWritten_ = false;
  bool closed_ = false;
  std::uint64_t eventsWritten_ = 0;
  unsigned layersSeen_ = 0;
  std::unordered_set<std::uint64_t> threadsSeen_;  // (layer << 32) | tid
};

}  // namespace bgckpt::obs
