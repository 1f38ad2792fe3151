// Simulated MPI: communicators, point-to-point, and collectives.
//
// Each MPI rank is a coroutine. Point-to-point messages travel over the
// simulated torus (netsim) and are matched (source, tag) in arrival order at
// the destination's mailbox, like a real MPI progress engine. Collectives
// use the dedicated collective/barrier networks' analytic cost model, since
// on Blue Gene they run on separate hardware and are effectively
// contention-free for this workload.
//
// Nonblocking-send semantics follow the paper's measurement model: the
// `isend` *call* costs only software overhead (a few microseconds with a
// heavy-tailed jitter — this is exactly the "perceived write" time of
// Table I); the returned Request completes at delivery.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "machine/bgp.hpp"
#include "netsim/torus.hpp"
#include "obs/obs.hpp"
#include "obs/optrace.hpp"
#include "simcore/channel.hpp"
#include "simcore/random.hpp"
#include "simcore/scheduler.hpp"
#include "simcore/sync.hpp"
#include "simcore/task.hpp"

namespace bgckpt::mpi {

/// Matches any source rank in recv().
inline constexpr int kAnySource = -1;

struct Message {
  sim::Bytes size = 0;
  /// Optional real content (small-scale correctness runs only).
  std::shared_ptr<const std::vector<std::byte>> payload;
  int tag = 0;
  int source = -1;  // filled in on delivery (local rank in the comm)
  /// Caller-defined metadata rider (mpiio uses it for file offsets).
  std::uint64_t meta = 0;
  /// Shared-state rider for in-simulation handle exchange (e.g. a
  /// collective open broadcasting its shared file object). Carries no
  /// simulated bytes; `size` governs timing.
  std::shared_ptr<void> box;
  /// Per-request span context riding the message by value: the sender's
  /// checkpoint block keeps its identity across the torus so the receiver
  /// (rbIO writer, mpiio aggregator) can link it into the aggregate write
  /// it lands in. Null (the default) when tracing is off.
  obs::OpTraceContext trace;

  /// Convenience: a payload-less message of `n` simulated bytes.
  static Message ofSize(sim::Bytes n) {
    Message m;
    m.size = n;
    return m;
  }
};

/// Handle for a nonblocking operation; completes at delivery.
class Request {
 public:
  Request() = default;
  bool valid() const { return static_cast<bool>(gate_); }
  bool done() const { return gate_ && gate_->fired(); }

 private:
  friend class Comm;
  explicit Request(std::shared_ptr<sim::Gate> gate) : gate_(std::move(gate)) {}
  std::shared_ptr<sim::Gate> gate_;
};

namespace detail {
struct Group;  // shared communicator state, defined in comm.cpp
}

/// A rank's view of a communicator (cheap to copy).
class Comm {
 public:
  Comm() = default;

  int rank() const { return rank_; }
  int size() const;
  int globalRank(int localRank) const;
  const machine::Machine& machine() const;
  sim::Scheduler& scheduler() const;

  /// Blocking send: completes when the message has been delivered.
  sim::Task<> send(int dst, int tag, Message msg);

  /// Nonblocking send: costs only the software call overhead.
  sim::Task<Request> isend(int dst, int tag, Message msg);

  /// Blocking receive; src may be kAnySource.
  sim::Task<Message> recv(int src, int tag);

  sim::Task<> wait(Request req);
  sim::Task<> waitAll(const std::vector<Request>& reqs);

  sim::Task<> barrier();
  /// Root's message is returned on every rank.
  sim::Task<Message> bcast(int root, Message msg);
  sim::Task<double> allReduceSum(double value);
  sim::Task<double> allReduceMax(double value);

  /// Gathers one value per rank; every rank receives the same shared,
  /// rank-ordered snapshot, so a gather costs O(size) memory in total.
  sim::Task<std::shared_ptr<const std::vector<std::uint64_t>>>
  allGatherU64Shared(std::uint64_t value);

  /// Collective split into disjoint sub-communicators by color; ranks are
  /// ordered by (key, old rank) within each color.
  sim::Task<Comm> split(int color, int key);

 private:
  friend class Runtime;
  Comm(std::shared_ptr<detail::Group> group, int rank)
      : group_(std::move(group)), rank_(rank) {}

  std::shared_ptr<detail::Group> group_;
  int rank_ = -1;
};

/// Owns the simulated job: one coroutine per rank running `program`.
class Runtime {
 public:
  Runtime(sim::Scheduler& sched, const machine::Machine& mach,
          net::TorusNetwork& torus, net::CollectiveNetwork& coll,
          std::uint64_t seed, obs::Observability* obs = nullptr);
  ~Runtime();

  /// Spawn `program(comm)` on every rank of the world communicator. Call
  /// Scheduler::run() afterwards to execute the job. The callable (and any
  /// captures) is kept alive by the Runtime, which must outlive the run —
  /// rank coroutine frames refer into it.
  void spawnAll(std::function<sim::Task<>(Comm)> program);

  /// World view for rank-independent helpers (e.g. tests driving one rank).
  Comm world(int rank) const;

  int numRanks() const;

 private:
  std::shared_ptr<detail::Group> world_;
  std::vector<std::shared_ptr<std::function<sim::Task<>(Comm)>>> programs_;
};

}  // namespace bgckpt::mpi
