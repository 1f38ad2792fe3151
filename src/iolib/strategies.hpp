// The three checkpointing strategies and the coordinated-step driver.
#pragma once

#include "iolib/spec.hpp"
#include "iolib/stack.hpp"

namespace bgckpt::iolib {

/// Execute one coordinated checkpoint step on the simulated machine: all
/// ranks synchronise, write one checkpoint with the configured strategy,
/// and per-rank blocked times are measured. Each op is counted in
/// `stack.profile`; its interval reaches any prof::IoProfileSink attached
/// to `stack.obs`.
CheckpointResult runCheckpoint(SimStack& stack, const CheckpointSpec& spec,
                               const StrategyConfig& cfg);

}  // namespace bgckpt::iolib
