// Host-scale checkpointing: the paper's strategies on real threads and real
// files.
//
// This backend keeps the algorithms honest at laptop scale: N ranks are N
// threads, files are real files in the iofmt container format, and the
// strategies move real bytes. It executes the same iolib::CheckpointPlan as
// the simulated backend, with two bodies:
//
//   direct     1PFPP (every thread creates and writes its own file) and
//              coIO (a group's threads write their blocks concurrently into
//              one shared file at collective-layout offsets);
//   aggregated rbIO (workers hand their data to the part's writer thread
//              through a queue, the MPI_Isend analogue measured as
//              "perceived" time) and coIO two-phase (the same funnel,
//              standing in for ROMIO aggregation: every rank also blocks
//              until its group's file is complete).
//
// Host rbIO always has one writer per file. readCheckpoint() reassembles
// per-rank state from any strategy's files, so a run checkpointed with one
// strategy restarts under any other.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/optrace.hpp"

namespace bgckpt::hostio {

struct HostSpec {
  std::string directory = "ckpt";
  int step = 0;
  std::vector<std::string> fieldNames;
  std::uint64_t fieldBytesPerRank = 0;
  double simTime = 0.0;
  std::uint64_t iteration = 0;
};

enum class HostStrategy { k1Pfpp, kCoIo, kCoIoTwoPhase, kRbIo };

struct HostConfig {
  HostStrategy strategy = HostStrategy::kRbIo;
  /// Output files: must divide np. 1PFPP ignores this; rbIO and two-phase
  /// use one writer per file.
  int nf = 1;
  /// Optional per-request causal tracing (obs/optrace.hpp): each rank's
  /// host write mints a context and records kHostWrite / handoff hops,
  /// with timestamps in wall seconds since the coordinated start. The
  /// tracer is single-threaded state; hostio serialises its calls behind
  /// an internal mutex, so the real-thread backend can share one tracer.
  obs::OpTracer* tracer = nullptr;
};

/// One rank's state: fields[f] holds fieldBytesPerRank bytes.
struct HostRankData {
  std::vector<std::vector<std::byte>> fields;
};

struct HostRunResult {
  double wallSeconds = 0;
  double bandwidth = 0;  ///< payload bytes / wallSeconds
  std::vector<double> perRankSeconds;
  /// rbIO only: worker-visible handoff metrics.
  double maxHandoffSeconds = 0;
  double perceivedBandwidth = 0;
  std::vector<std::string> files;
};

/// Write one coordinated checkpoint of `data` (size = np ranks). Throws
/// std::invalid_argument for a bad configuration, and rethrows the lowest
/// failing rank's error (e.g. a part file that cannot be created) after
/// every thread has finished.
HostRunResult writeCheckpoint(const HostSpec& spec, const HostConfig& config,
                              const std::vector<HostRankData>& data);

/// Read a checkpoint back (any strategy's file set), returning per-rank
/// state for `np` ranks. Also returns simTime/iteration via `spec`.
std::vector<HostRankData> readCheckpoint(HostSpec& spec, int np);

/// Verify every part file's checksums, all parts' sections concurrently
/// (iofmt::verifyFiles). False unless exactly the part count recorded in
/// part 0's master header exists and every part verifies; never throws for
/// missing, truncated or corrupt files.
bool verifyCheckpoint(const HostSpec& spec);

}  // namespace bgckpt::hostio
