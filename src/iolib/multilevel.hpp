// Multilevel checkpointing (SCR-style) — the future-work direction the
// paper's related-work section closes on: "The Scalable Checkpoint Restart
// (SCR) library provides a multi-level checkpointing capability that can
// leverage local node storage ... A current barrier to using SCR is that
// it requires a compute-side OS that is RAM disk capable; the Blue Gene/P
// compute node kernel is not. This barrier will disappear as future
// leadership computing systems provide more full-featured OS capabilities."
//
// This module simulates exactly that future system: level-1 checkpoints go
// to node-local RAM disk (optionally mirrored to a partner node over the
// torus, surviving single-node failures); every `pfsEvery`-th checkpoint
// additionally drains to the parallel filesystem with one of the paper's
// strategies.
#pragma once

#include "iolib/spec.hpp"
#include "iolib/stack.hpp"

namespace bgckpt::iolib {

struct MultilevelConfig {
  /// Node-local RAM-disk bandwidth (shared by the node's ranks).
  sim::Bandwidth localBandwidth = 1.5e9;
  sim::Duration localLatency = 50e-6;
  /// Mirror each local checkpoint to the torus neighbour (+x node), so a
  /// single-node loss is recoverable from level 1.
  bool partnerCopy = true;
  /// Every Nth checkpoint also drains to the PFS (level 2).
  int pfsEvery = 4;
  StrategyConfig pfsStrategy = StrategyConfig::rbIo(64, true);

  bool operator==(const MultilevelConfig&) const = default;
};

struct MultilevelResult {
  double localMakespan = 0;    ///< level-1 (local [+partner]) time
  double pfsMakespan = 0;      ///< level-2 (PFS) time
  /// Amortised cost per checkpoint over one pfsEvery cycle.
  double amortizedSeconds = 0;
  /// Per-checkpoint speedup of level 1 over going to the PFS every time.
  double level1Speedup = 0;
  /// Amortised speedup of the multilevel scheme over PFS-only.
  double amortizedSpeedup = 0;
};

MultilevelResult runMultilevelCheckpoint(SimStack& stack,
                                         const CheckpointSpec& spec,
                                         const MultilevelConfig& cfg);

}  // namespace bgckpt::iolib
