#include "netsim/torus.hpp"

#include <cmath>

namespace bgckpt::net {

using sim::Duration;

TorusNetwork::TorusNetwork(sim::Scheduler& sched,
                           const machine::Machine& mach,
                           obs::Observability* obs)
    : sched_(sched),
      mach_(mach),
      obs_(obs),
      // Receive-side drain: a memory copy sharing the node's memory system
      // with its other cores; use half the node memory bandwidth.
      drainBandwidth_(mach.compute().memoryBandwidth / 2.0) {
  for (int n = 0; n < mach.numNodes(); ++n) {
    injection_.emplace_back(sched, 1, "torus-injection");
    ejection_.emplace_back(sched, 1, "torus-ejection");
  }
  if (obs_) {
    auto& m = obs_->metrics();
    mMessages_ = &m.counter("net.torus.messages");
    mBytes_ = &m.counter("net.torus.bytes");
    mBusy_ = &m.gauge("net.torus.busy_seconds");
    m.gauge("net.torus.links").set(static_cast<double>(mach.numNodes()));
  }
}

sim::Task<> TorusNetwork::transfer(int srcRank, int dstRank,
                                   sim::Bytes bytes,
                                   obs::OpTraceContext otc) {
  const auto& cc = mach_.compute();
  const int srcNode = mach_.nodeOfRank(srcRank);
  const int dstNode = mach_.nodeOfRank(dstRank);
  const double start = sched_.now();

  if (srcNode == dstNode) {
    // Intra-node: a memory copy plus software overhead.
    co_await sched_.delay(cc.mpiOverhead +
                          sim::transferTime(bytes, cc.memoryBandwidth));
    otc.hop(obs::Hop::kNetLocal, start, sched_.now(), bytes);
  } else {
    // Acquire/release ordering audit: the source NIC token is held only
    // across the serialisation delay and released (ScopedTokens scope ends)
    // BEFORE the flight delay and before the ejection port is requested.
    // A slow or blocked receiver therefore can never pin a sender-side NIC
    // token, and injection->ejection hold-and-wait (the classic endpoint
    // deadlock cycle) is impossible. torus_test's
    // SlowReceiverDoesNotDeadlockSenderNic regression locks this in.
    //
    // Fragmentation is batched analytically: instead of simulating the
    // message packet-by-packet (BG/P wormhole routing, 256-byte FLITs — an
    // rbIO writer handoff would be ~16K fragment events), the pipelined
    // transfer is costed in closed form as serialisation + hops * hopLatency,
    // so a handoff of any size is O(1) events. torus_test's
    // TransferEventCostIsConstantInMessageSize regression locks this in.
    co_await injection_[static_cast<std::size_t>(srcNode)].acquire();
    {
      sim::ScopedTokens nic(injection_[static_cast<std::size_t>(srcNode)], 1);
      const sim::Duration busy =
          cc.mpiOverhead + sim::transferTime(bytes, cc.torusLinkBandwidth);
      co_await sched_.delay(busy);
      if (mBusy_) mBusy_->add(busy);
    }
    otc.hop(obs::Hop::kNetInject, start, sched_.now(), bytes);
    // Flight time across the fabric.
    const sim::SimTime flightStart = sched_.now();
    const int hops = mach_.torusHops(srcNode, dstNode);
    co_await sched_.delay(static_cast<double>(hops) * cc.torusHopLatency);
    otc.hop(obs::Hop::kNetFlight, flightStart, sched_.now());
    // Receiver drain at the destination.
    const sim::SimTime ejectStart = sched_.now();
    co_await ejection_[static_cast<std::size_t>(dstNode)].acquire();
    {
      sim::ScopedTokens port(ejection_[static_cast<std::size_t>(dstNode)], 1);
      co_await sched_.delay(sim::transferTime(bytes, drainBandwidth_));
    }
    otc.hop(obs::Hop::kNetEject, ejectStart, sched_.now(), bytes);
  }

  ++messages_;
  bytes_ += bytes;
  latency_.add(sched_.now() - start);
  if (obs_) {
    mMessages_->add();
    mBytes_->add(bytes);
  }
}

Duration TorusNetwork::uncontendedLatency(int srcRank, int dstRank,
                                          sim::Bytes bytes) const {
  const auto& cc = mach_.compute();
  const int srcNode = mach_.nodeOfRank(srcRank);
  const int dstNode = mach_.nodeOfRank(dstRank);
  if (srcNode == dstNode)
    return cc.mpiOverhead + sim::transferTime(bytes, cc.memoryBandwidth);
  const int hops = mach_.torusHops(srcNode, dstNode);
  return cc.mpiOverhead + sim::transferTime(bytes, cc.torusLinkBandwidth) +
         static_cast<double>(hops) * cc.torusHopLatency +
         sim::transferTime(bytes, drainBandwidth_);
}

Duration CollectiveNetwork::barrierCost(int parties) const {
  const auto& cc = mach_.compute();
  // The global-interrupt network completes a barrier in near-constant time;
  // a small logarithmic term covers software arming.
  const double depth = parties > 1 ? std::ceil(std::log2(parties)) : 0.0;
  return cc.barrierLatency + 0.1e-6 * depth;
}

Duration CollectiveNetwork::broadcastCost(int parties,
                                          sim::Bytes bytes) const {
  const auto& cc = mach_.compute();
  const double depth = parties > 1 ? std::ceil(std::log2(parties)) : 0.0;
  return depth * cc.treeStageLatency +
         sim::transferTime(bytes, cc.treeLinkBandwidth);
}

Duration CollectiveNetwork::reduceCost(int parties, sim::Bytes bytes) const {
  // Same pipeline shape as broadcast on BG/P's combining tree.
  return broadcastCost(parties, bytes);
}

}  // namespace bgckpt::net
