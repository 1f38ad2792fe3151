// Host-scale checkpointing: the paper's three strategies on real threads
// and real files.
//
// This backend keeps the algorithms honest at laptop scale: N ranks are N
// threads, files are real files in the iofmt container format, and the
// strategies move real bytes:
//
//   1PFPP  every thread creates and writes its own single-rank file;
//   coIO   threads in a group write their blocks concurrently into one
//          shared file at collective-layout offsets;
//   coIO two-phase: the group's blocks funnel through one aggregator
//          thread that commits them, and — unlike rbIO — every rank blocks
//          until its group's file is complete (collective semantics);
//   rbIO   workers hand their data to the group's writer thread through a
//          queue (the MPI_Isend analogue — measured as "perceived" time)
//          and the writer alone touches the filesystem.
//
// readCheckpoint() reassembles per-rank state from any strategy's files,
// so a run checkpointed with one strategy restarts under any other.
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
  /// Output files (1PFPP ignores this; rbIO uses one writer per file).
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

/// Path of part `part` of step `spec.step` (same scheme as the simulator).
std::string hostCheckpointPath(const HostSpec& spec, int part);

/// Write one coordinated checkpoint of `data` (size = np ranks).
HostRunResult writeCheckpoint(const HostSpec& spec, const HostConfig& config,
                              const std::vector<HostRankData>& data);

/// Read a checkpoint back (any strategy's file set), returning per-rank
/// state for `np` ranks. Also returns simTime/iteration via `spec`.
std::vector<HostRankData> readCheckpoint(HostSpec& spec, int np);

/// Verify every part file's checksums, all parts' sections concurrently
/// (iofmt::verifyFiles). False when no part exists or any part is
/// truncated or corrupt; never throws for damaged files.
bool verifyCheckpoint(const HostSpec& spec);

}  // namespace bgckpt::hostio
