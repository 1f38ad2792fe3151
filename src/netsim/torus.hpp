// 3-D torus network model.
//
// We model the torus at endpoint granularity: a message holds its source
// node's injection port (NIC serialisation at link speed, shared by the
// node's ranks), flies for `hops * hopLatency`, then holds the destination
// node's ejection port while the receiver drains it at memory-copy speed.
// In-fabric link contention is deliberately not modelled: the checkpointing
// traffic patterns of this study (worker -> nearby writer aggregation,
// rank -> aggregator exchange within psets) are local, and their observed
// bottlenecks are endpoint fan-in and the storage path behind the IONs.
#pragma once

#include <deque>

#include "machine/bgp.hpp"
#include "obs/obs.hpp"
#include "obs/optrace.hpp"
#include "simcore/resource.hpp"
#include "simcore/scheduler.hpp"
#include "simcore/stats.hpp"
#include "simcore/task.hpp"
#include "simcore/units.hpp"

namespace bgckpt::net {

class TorusNetwork {
 public:
  TorusNetwork(sim::Scheduler& sched, const machine::Machine& mach,
               obs::Observability* obs = nullptr);

  /// Move `bytes` from `srcRank` to `dstRank`; completes at delivery time
  /// (when the receiver has drained the message). A live `otc` (the
  /// sender's span context, riding by value) receives inject/flight/eject
  /// hop spans.
  sim::Task<> transfer(int srcRank, int dstRank, sim::Bytes bytes,
                       obs::OpTraceContext otc = {});

  /// Latency of a zero-contention transfer (for tests and cost estimates).
  sim::Duration uncontendedLatency(int srcRank, int dstRank,
                                   sim::Bytes bytes) const;

  std::uint64_t messagesDelivered() const { return messages_; }
  sim::Bytes bytesDelivered() const { return bytes_; }
  const sim::Accumulator& latencyStats() const { return latency_; }

  /// Endpoint ports, exposed so tests can occupy them and audit the
  /// acquire/release ordering of transfer() (e.g. prove that a slow or
  /// blocked receiver never pins the sender-side NIC token).
  sim::Resource& injectionPort(int node) {
    return injection_[static_cast<std::size_t>(node)];
  }
  sim::Resource& ejectionPort(int node) {
    return ejection_[static_cast<std::size_t>(node)];
  }

 private:
  sim::Scheduler& sched_;
  const machine::Machine& mach_;
  obs::Observability* obs_;
  sim::Bandwidth drainBandwidth_;  // receiver copy rate
  // Per-node ports stored by value. Resource is not movable, so a deque
  // (stable addresses, emplace-in-place) replaces the old unique_ptr
  // indirection — one pointer chase less on every acquire in the hot path.
  std::deque<sim::Resource> injection_;
  std::deque<sim::Resource> ejection_;
  std::uint64_t messages_ = 0;
  sim::Bytes bytes_ = 0;
  sim::Accumulator latency_;
  obs::Counter* mMessages_ = nullptr;
  obs::Counter* mBytes_ = nullptr;
  obs::Gauge* mBusy_ = nullptr;  // injection-link busy seconds
};

/// Cost model for the dedicated collective (tree) and barrier networks.
/// These are contention-free in practice for our workloads, so costs are
/// analytic rather than resource-based.
class CollectiveNetwork {
 public:
  explicit CollectiveNetwork(const machine::Machine& mach) : mach_(mach) {}

  /// Global-interrupt barrier over `parties` ranks.
  sim::Duration barrierCost(int parties) const;

  /// One-to-all broadcast of `bytes` over `parties` ranks on the tree.
  sim::Duration broadcastCost(int parties, sim::Bytes bytes) const;

  /// All-to-one reduction of `bytes` over `parties` ranks on the tree.
  sim::Duration reduceCost(int parties, sim::Bytes bytes) const;

 private:
  const machine::Machine& mach_;
};

}  // namespace bgckpt::net
