// Production campaign: compute steps interleaved with checkpoints — the
// end-to-end experiment behind Eq. (1).
//
// For blocking strategies (1PFPP, coIO) every rank computes and then
// checkpoints inline. For rbIO the writers are dedicated I/O ranks (as in
// the paper): workers compute and hand off packages with nonblocking
// sends, while writers drain checkpoint generations concurrently with the
// workers' ongoing computation — so checkpoint cost only appears on the
// critical path when a writer falls behind the checkpoint cadence.
#pragma once

#include "iolib/spec.hpp"
#include "iolib/stack.hpp"

namespace bgckpt::iolib {

struct CampaignConfig {
  int steps = 40;               ///< compute steps to run
  int checkpointEvery = 20;     ///< nc: checkpoint cadence
  double computeStepSeconds = 0.22;
  StrategyConfig strategy;

  bool operator==(const CampaignConfig&) const = default;
};

struct CampaignResult {
  double totalSeconds = 0;      ///< wall time of the whole campaign
  double computeSeconds = 0;    ///< nc-ideal compute-only time
  double ioOverheadSeconds = 0; ///< total - compute
  int checkpointsTaken = 0;

  /// End-to-end production improvement of this campaign over `other`
  /// (Eq. (1) measured directly: other.total / this.total).
  double improvementOver(const CampaignResult& other) const {
    return other.totalSeconds > 0 ? other.totalSeconds / totalSeconds : 0;
  }
};

/// Run the campaign on the simulated machine. Checkpoints are written as
/// steps s<k> for k = 0, 1, ... into spec.directory.
CampaignResult runCampaign(SimStack& stack, const CheckpointSpec& spec,
                           const CampaignConfig& cfg);

}  // namespace bgckpt::iolib
