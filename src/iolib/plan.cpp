#include "iolib/plan.hpp"

#include <stdexcept>

namespace bgckpt::iolib {

namespace {

bool divides(int d, int n) { return d >= 1 && n % d == 0; }

}  // namespace

const char* strategyName(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::k1Pfpp: return "1PFPP";
    case StrategyKind::kCoIo: return "coIO";
    case StrategyKind::kRbIo: return "rbIO";
  }
  return "?";
}

std::string partPath(const std::string& directory, int step, int part) {
  return directory + "/s" + std::to_string(step) + ".part" +
         std::to_string(part);
}

std::string privateDirPath(const std::string& directory, int step, int rank) {
  return directory + "/r" + std::to_string(rank) + "/s" +
         std::to_string(step);
}

CheckpointPlan::CheckpointPlan(int np, StrategyKind kind, int nf,
                               int groupSize)
    : np_(np), kind_(kind) {
  if (np < 1) throw std::invalid_argument("checkpoint needs ranks");
  switch (kind) {
    case StrategyKind::k1Pfpp:
      break;
    case StrategyKind::kCoIo:
      if (!divides(nf, np))
        throw std::invalid_argument("coIO: nf must divide np");
      ranksPerPart_ = np / nf;
      break;
    case StrategyKind::kRbIo:
      if (!divides(groupSize, np))
        throw std::invalid_argument("groupSize must divide np");
      groupSize_ = groupSize;
      if (nf != 0 && nf != 1 && nf != np / groupSize)
        throw std::invalid_argument("rbIO: nf must be 1 or ng");
      writersCommitCollectively_ = nf == 1;
      ranksPerPart_ = writersCommitCollectively_ ? np : groupSize;
      break;
  }
}

CheckpointPlan CheckpointPlan::writerPerPart(int np, int nf) {
  if (np < 1) throw std::invalid_argument("checkpoint needs ranks");
  if (!divides(nf, np)) throw std::invalid_argument("nf must divide np");
  return {np, StrategyKind::kRbIo, 0, np / nf};
}

}  // namespace bgckpt::iolib
