// Checkpoint specification and strategy configuration.
//
// A checkpoint step writes every rank's local solver state — `numFields`
// equally-sized data blocks per rank (NekCEM: Ex,Ey,Ez,Hx,Hy,Hz plus grid
// coordinates and cell data) — into `nf` output files with a vtk-legacy
// style master header per file. iolib/plan.hpp describes the paper's three
// strategies and maps their ranks to files.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "iolib/plan.hpp"
#include "mpiio/file.hpp"
#include "simcore/units.hpp"

namespace bgckpt::iolib {

struct CheckpointSpec {
  /// Bytes of one field block on one rank.
  sim::Bytes fieldBytesPerRank = 0;
  /// Field-like blocks per rank (6 E/H components + 3 coordinates + cells).
  int numFields = 10;
  /// Master header written once per output file.
  sim::Bytes headerBytes = 8 * sim::KiB;
  /// Output directory (all files of a step share it).
  std::string directory = "ckpt";
  /// Checkpoint step index (file naming).
  int step = 0;
  /// Generate and verify real content (small-scale correctness runs only).
  bool carryPayload = false;

  sim::Bytes bytesPerRank() const {
    return fieldBytesPerRank * static_cast<sim::Bytes>(numFields);
  }

  /// The paper's weak-scaling problem for `np` ranks: S = 39 GB at 16K,
  /// 78 GB at 32K, 156 GB at 64K (2.38 MB/rank, 10 blocks).
  static CheckpointSpec nekcemWeakScaling(int np);

  bool operator==(const CheckpointSpec&) const = default;
};

struct StrategyConfig {
  StrategyKind kind = StrategyKind::kRbIo;
  /// Number of output files. 1PFPP ignores this (nf == np).
  /// coIO: ranks are split into nf groups of np/nf (np:nf in paper terms).
  /// rbIO: either nf == ng (independent writers; 0 is short for ng) or
  /// nf == 1 (collective). CheckpointPlan rejects anything else.
  int nf = 1;
  /// rbIO only: ranks per group (one writer each); np:ng = groupSize:1.
  int groupSize = 64;
  /// MPI-IO hints for collective writes.
  io::Hints hints;
  /// rbIO writer aggregation buffer (flush granularity when nf == ng).
  sim::Bytes writerBuffer = 64 * sim::MiB;
  /// 1PFPP only: one subdirectory per rank, dodging the single-directory
  /// metadata storm (the paper: "Better performance may be achieved by
  /// producing a single file per directory. However ... manageability
  /// becomes a significant issue").
  bool onePfppPrivateDirs = false;

  std::string describe() const;
  bool operator==(const StrategyConfig&) const = default;

  static StrategyConfig onePfpp();
  static StrategyConfig coIo(int nf);
  /// rbIO with np:ng = groupSize:1; nf == ng when independentFiles.
  static StrategyConfig rbIo(int groupSize, bool independentFiles);
};

struct CheckpointResult {
  double makespan = 0;           ///< slowest rank's blocked time
  double bandwidth = 0;          ///< logical bytes / makespan
  sim::Bytes logicalBytes = 0;   ///< headers + all field data
  std::vector<double> perRankTime;
  /// rbIO extras (zero for other strategies):
  double workerMakespan = 0;         ///< slowest worker (perceived)
  double writerMakespan = 0;         ///< slowest writer
  double perceivedBandwidth = 0;     ///< worker bytes / slowest Isend
  double maxIsendSeconds = 0;
  int numWriters = 0;
};

}  // namespace bgckpt::iolib
