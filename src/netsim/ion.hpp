// I/O-node forwarding layer.
//
// On Blue Gene/P, compute nodes cannot talk to storage directly: every file
// system call is function-shipped over the collective network to the pset's
// dedicated I/O node (ION), which performs the operation against the
// storage fabric over 10 Gigabit Ethernet. This class models the per-pset
// uplink as a FIFO-served bandwidth resource plus a fixed per-request
// forwarding overhead.
#pragma once

#include <deque>

#include "machine/bgp.hpp"
#include "obs/obs.hpp"
#include "obs/optrace.hpp"
#include "simcore/resource.hpp"
#include "simcore/scheduler.hpp"
#include "simcore/task.hpp"

namespace bgckpt::net {

class IonForwarding {
 public:
  IonForwarding(sim::Scheduler& sched, const machine::Machine& mach,
                obs::Observability* obs = nullptr);

  /// Ship `bytes` of payload from `rank`'s pset up to the storage fabric
  /// (or down, for reads — the link is modelled symmetrically). Completes
  /// when the ION has finished moving the data onto the Ethernet. A live
  /// `otc` receives the uplink queue-wait and forwarding hop spans.
  sim::Task<> forward(int rank, sim::Bytes bytes,
                      obs::OpTraceContext otc = {});

  /// Per-request software overhead of function shipping (no data).
  sim::Duration requestOverhead() const {
    return mach_.io().forwardingOverhead;
  }

  std::uint64_t requestsForwarded() const { return requests_; }
  sim::Bytes bytesForwarded() const { return bytes_; }

 private:
  sim::Scheduler& sched_;
  const machine::Machine& mach_;
  obs::Observability* obs_;
  std::deque<sim::Resource> uplink_;  // per pset, by value (non-movable)
  std::uint64_t requests_ = 0;
  sim::Bytes bytes_ = 0;
  // Metric handles, resolved once (null when unobserved).
  obs::Counter* mRequests_ = nullptr;
  obs::Counter* mBytes_ = nullptr;
  obs::Gauge* mBusy_ = nullptr;
};

}  // namespace bgckpt::net
