// Storage fabric: file servers backed by DDN disk arrays.
//
// Requests arrive at a file server (FIFO queue, fixed per-request overhead,
// service at the server's sustained rate), then occupy the server's backing
// DDN array. Two effects shape the figures:
//
//  * Background noise: the Intrepid filesystems were shared with Eureka and
//    other clusters, and all the paper's runs happened "under normal load".
//    Each server request can land in a noisy episode that inflates its
//    service time (lognormal multiplier), producing the straggler outliers
//    the paper blames for coIO's 64K-core drop (Fig. 10).
//
//  * Stream thrash: a DDN array interleaving many distinct write streams
//    pays seek/reposition penalties once the stream count exceeds a knee,
//    degrading the right-hand side of the file-count sweep (Fig. 8).
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "machine/bgp.hpp"
#include "obs/obs.hpp"
#include "obs/optrace.hpp"
#include "simcore/random.hpp"
#include "simcore/resource.hpp"
#include "simcore/scheduler.hpp"
#include "simcore/stats.hpp"
#include "simcore/task.hpp"

namespace bgckpt::stor {

/// Identifies a logical stream (one file) for seek accounting.
using StreamId = std::uint64_t;

struct NoiseModel {
  /// Probability that a server request hits a transient noisy episode.
  double slowProbability = 0.01;
  /// Lognormal multiplier applied to noisy requests.
  double slowFactorMedian = 3.0;
  double slowFactorSigma = 0.5;
  /// Rare severe stalls (an overloaded server, a RAID rebuild, ...).
  double severeProbability = 8e-6;
  double severeFactorMedian = 60.0;
  double severeFactorSigma = 0.3;

  /// A noise model for an idle, dedicated system (used by tests).
  static NoiseModel none() {
    return NoiseModel{0.0, 1.0, 0.0, 0.0, 1.0, 0.0};
  }

  bool operator==(const NoiseModel&) const = default;
};

class StorageFabric {
 public:
  /// `serverConcurrency` is the number of client streams one file server
  /// services in parallel; each in-flight request is serviced at the
  /// caller-supplied per-stream rate, so a server's aggregate ceiling is
  /// serverConcurrency * rate.
  StorageFabric(sim::Scheduler& sched, const machine::Machine& mach,
                std::uint64_t seed, NoiseModel noise = NoiseModel{},
                int serverConcurrency = 1,
                obs::Observability* obs = nullptr);

  /// Service one write request of `bytes` for `stream` on `serverId`.
  /// `effectiveServerBandwidth` lets the filesystem layer express its own
  /// efficiency (GPFS software overhead) without changing the hardware.
  /// A live `otc` receives the server queue/service and array queue/commit
  /// hop spans.
  sim::Task<> write(int serverId, StreamId stream, sim::Bytes bytes,
                    sim::Bandwidth effectiveServerBandwidth,
                    obs::OpTraceContext otc = {});

  /// Service one read request (reads use the read-side service rate).
  sim::Task<> read(int serverId, StreamId stream, sim::Bytes bytes,
                   sim::Bandwidth effectiveServerBandwidth,
                   obs::OpTraceContext otc = {});

  int numServers() const { return mach_.io().numFileServers; }
  int numArrays() const { return mach_.io().numDdnArrays; }
  int arrayOfServer(int serverId) const {
    return serverId % mach_.io().numDdnArrays;
  }

  sim::Bytes bytesWritten() const { return bytesWritten_; }
  std::uint64_t requestsServed() const { return requests_; }
  const sim::Accumulator& serviceTimeStats() const { return serviceTime_; }

  /// Distinct streams recently active across the fabric (diagnostic hook).
  int activeStreams() const;

 private:
  sim::Task<> service(int serverId, StreamId stream, sim::Bytes bytes,
                      sim::Bandwidth serverRate, sim::Bandwidth arrayRate,
                      obs::OpTraceContext otc);
  double noiseFactor();
  sim::Duration seekPenalty(StreamId stream);
  /// Drop streams idle past kStreamWindow (lazy, driven by touch records).
  void expireStreams(sim::SimTime now) const;

  static constexpr sim::Duration kStreamWindow = 2.0;  // seconds

  sim::Scheduler& sched_;
  const machine::Machine& mach_;
  obs::Observability* obs_;
  sim::RngStream rng_;
  NoiseModel noise_;
  // By-value FIFO resources (deque: Resource is non-movable).
  std::deque<sim::Resource> servers_;
  std::deque<sim::Resource> arrayPorts_;
  // stream -> last time it touched the fabric. The interleave pressure that
  // matters on the shared DDN tier is the system-wide count of concurrent
  // write streams, since every file's blocks stripe over all servers and
  // arrays. The count is maintained incrementally: every touch appends a
  // (time, stream) record, and records older than kStreamWindow retire
  // their stream (if not re-touched since) as simulated time advances —
  // O(1) amortized per request instead of an O(streams) scan.
  // Mutable: activeStreams() is a const diagnostic but drives lazy expiry.
  mutable std::unordered_map<StreamId, sim::SimTime> recentStreams_;
  mutable std::deque<std::pair<sim::SimTime, StreamId>> touches_;
  mutable int activeCount_ = 0;
  // The reported count is sampled once per distinct timestamp: requests
  // landing at the same simulated instant all see the crowd as it stood
  // when the first of them looked (they are "concurrent" — none of them
  // has finished announcing itself to the others).
  mutable int activeCache_ = 0;
  mutable sim::SimTime activeCacheTime_ = -1.0;
  sim::Bytes bytesWritten_ = 0;
  std::uint64_t requests_ = 0;
  sim::Accumulator serviceTime_;
  obs::Counter* mRequests_ = nullptr;
  obs::Counter* mBytes_ = nullptr;
  obs::Gauge* mServerBusy_ = nullptr;
  obs::Gauge* mArrayBusy_ = nullptr;
  obs::Gauge* mStreamsMax_ = nullptr;
  obs::Histogram* mServiceTime_ = nullptr;
};

}  // namespace bgckpt::stor
