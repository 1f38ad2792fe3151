#include "iolib/spec.hpp"

namespace bgckpt::iolib {

CheckpointSpec CheckpointSpec::nekcemWeakScaling(int np) {
  // Weak scaling at 2.4 MB per rank: (np, S) = (16K, ~39 GB),
  // (32K, ~78 GB), (64K, ~157 GB) as in Section V-B.
  (void)np;  // per-rank size is scale-invariant under weak scaling
  CheckpointSpec spec;
  spec.fieldBytesPerRank = 240'000;
  spec.numFields = 10;
  return spec;
}

std::string StrategyConfig::describe() const {
  std::string s = strategyName(kind);
  switch (kind) {
    case StrategyKind::k1Pfpp:
      s += " (nf=np)";
      break;
    case StrategyKind::kCoIo:
      s += " nf=" + std::to_string(nf);
      break;
    case StrategyKind::kRbIo:
      s += " np:ng=" + std::to_string(groupSize) + ":1, " +
           (nf == 1 ? "nf=1" : "nf=ng");
      break;
  }
  return s;
}

StrategyConfig StrategyConfig::onePfpp() {
  StrategyConfig cfg;
  cfg.kind = StrategyKind::k1Pfpp;
  return cfg;
}

StrategyConfig StrategyConfig::coIo(int nf) {
  StrategyConfig cfg;
  cfg.kind = StrategyKind::kCoIo;
  cfg.nf = nf;
  return cfg;
}

StrategyConfig StrategyConfig::rbIo(int groupSize, bool independentFiles) {
  StrategyConfig cfg;
  cfg.kind = StrategyKind::kRbIo;
  cfg.groupSize = groupSize;
  cfg.nf = independentFiles ? 0 : 1;  // 0 means "nf == ng", resolved at run
  return cfg;
}

}  // namespace bgckpt::iolib
