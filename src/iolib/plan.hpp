// The rank-to-file plan of one checkpoint step, shared by both executors.
//
// The paper's three strategies differ only in who moves a rank's bytes.
// Which ranks share a part file, a rank's slot in it and which rank commits
// it follow from (np, strategy, nf, groupSize); CheckpointPlan is that
// mapping with all of its validation. The simulated executor (iolib) and
// the host executor (hostio) ask it instead of doing group arithmetic. It
// uses the standard library only, so hostio does not link the simulator.
//
//   1PFPP  np parts of one rank; every rank writes its own blocks.
//   coIO   nf parts of np/nf ranks; every rank writes its own blocks (the
//          simulated executor through MPI-IO collectives over the part).
//   rbIO   groups of groupSize ranks whose first rank, the writer, commits
//          the others' blocks: one part per writer (nf == ng), or one part
//          the writers commit collectively (nf == 1).
//
// Part k holds ranks [k * ranksPerPart, (k + 1) * ranksPerPart) in order.
#pragma once

#include <ranges>
#include <string>

namespace bgckpt::iolib {

enum class StrategyKind { k1Pfpp, kCoIo, kRbIo };

const char* strategyName(StrategyKind kind);

/// File of part `part` of checkpoint step `step`: "<dir>/s<step>.part<part>".
std::string partPath(const std::string& directory, int step, int part);

/// 1PFPP's file when every rank has a directory of its own:
/// "<dir>/r<rank>/s<step>".
std::string privateDirPath(const std::string& directory, int step, int rank);

class CheckpointPlan {
 public:
  /// Throws std::invalid_argument unless np >= 1 and
  ///   coIO: nf >= 1 divides np;
  ///   rbIO: groupSize >= 1 divides np, and nf is 1, ng = np / groupSize,
  ///         or 0 (short for ng).
  /// 1PFPP ignores nf and groupSize.
  CheckpointPlan(int np, StrategyKind kind, int nf, int groupSize);

  /// rbIO with one writer per part: nf parts of np / nf ranks, each
  /// committed by its first rank (the host's rbIO and two-phase shape).
  /// Throws std::invalid_argument unless np >= 1 and nf >= 1 divides np.
  static CheckpointPlan writerPerPart(int np, int nf);

  StrategyKind kind() const { return kind_; }
  int numRanks() const { return np_; }

  int numParts() const { return np_ / ranksPerPart_; }
  int ranksPerPart() const { return ranksPerPart_; }
  int firstRank(int part) const { return part * ranksPerPart_; }
  int partOf(int rank) const { return rank / ranksPerPart_; }
  /// Index of `rank`'s blocks within its part file.
  int slotOf(int rank) const { return rank % ranksPerPart_; }

  /// Ranks per writer group (rbIO's np:ng); 1 where every rank writes its
  /// own blocks.
  int groupSize() const { return groupSize_; }
  int numWriters() const { return np_ / groupSize_; }
  /// The rank that commits `rank`'s blocks.
  int writerOf(int rank) const { return rank - rank % groupSize_; }
  bool isWriter(int rank) const { return rank % groupSize_ == 0; }
  /// The ranks whose blocks `writer` commits: itself and the groupSize - 1
  /// ranks after it.
  std::ranges::iota_view<int, int> groupOf(int writer) const {
    return {writer, writer + groupSize_};
  }
  /// rbIO nf=1: the writers commit their one shared part collectively.
  bool writersCommitCollectively() const { return writersCommitCollectively_; }

 private:
  int np_;
  StrategyKind kind_;
  int ranksPerPart_ = 1;
  int groupSize_ = 1;
  bool writersCommitCollectively_ = false;
};

}  // namespace bgckpt::iolib
