#include "mpisim/comm.hpp"

#include "simcore/simcheck.hpp"
#include "simcore/waitlist.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <utility>

namespace bgckpt::mpi {

namespace detail {

struct Group {
  sim::Scheduler& sched;
  const machine::Machine& mach;
  net::TorusNetwork& torus;
  net::CollectiveNetwork& coll;
  obs::Observability* obs = nullptr;  // shared across subgroups
  std::shared_ptr<sim::RngStream> jitter;  // shared across subgroups
  std::vector<int> globalRanks;
  sim::Barrier barrier;  // direct member: Group itself lives behind shared_ptr

  struct Waiter {
    int src = kAnySource;
    int tag = 0;
    std::coroutine_handle<> handle;
    Message msg;
    Waiter* next = nullptr;
  };
  /// One rank's mailbox. A receive posted before its message parks in its
  /// own awaiter, so a mailbox allocates only when a message arrives before
  /// its receive; the arrival queue it allocates then is kept.
  struct Box {
    sim::WaitList<Waiter> waiters;               // suspended receivers, in order
    std::unique_ptr<std::deque<Message>> early;  // unmatched arrivals, in order
  };
  std::vector<Box> boxes;

  // Collective scratch state. MPI requires every rank to enter collectives
  // in the same order, so one set of slots per group suffices; the last
  // arrival finalises results before the barrier releases anyone.
  int collArrived = 0;
  double reduceSumAccum = 0.0;
  double reduceMaxAccum = -std::numeric_limits<double>::infinity();
  double reduceSumResult = 0.0;
  double reduceMaxResult = 0.0;
  std::vector<std::uint64_t> gatherAccum;  // sized only during a gather
  std::shared_ptr<const std::vector<std::uint64_t>> gatherShared;
  Message bcastSlot;
  std::vector<std::tuple<int, int, int>> splitEntries;  // (color, key, rank)
  // Hand-over state of the latest split, dropped once every member has
  // picked up its Comm: from then on the members own the sub-communicators.
  std::map<int, std::shared_ptr<Group>> splitGroups;
  std::vector<int> splitLocalRank;
  int splitPickedUp = 0;

  Group(sim::Scheduler& s, const machine::Machine& m, net::TorusNetwork& t,
        net::CollectiveNetwork& c, obs::Observability* o,
        std::shared_ptr<sim::RngStream> j, std::vector<int> ranks)
      : sched(s),
        mach(m),
        torus(t),
        coll(c),
        obs(o),
        jitter(std::move(j)),
        globalRanks(std::move(ranks)),
        barrier(s, globalRanks.size()),
        boxes(globalRanks.size()) {}

  int size() const { return static_cast<int>(globalRanks.size()); }

  static bool matches(const Message& msg, int wantSrc, int wantTag) {
    return (wantSrc == kAnySource || msg.source == wantSrc) &&
           msg.tag == wantTag;
  }

  void deliver(int dst, Message msg) {
    Box& box = boxes[static_cast<std::size_t>(dst)];
    Waiter* w = box.waiters.takeFirst([&msg](const Waiter& posted) {
      return matches(msg, posted.src, posted.tag);
    });
    if (w) {
      w->msg = std::move(msg);
      sched.scheduleResume(
          0.0, w->handle,
          sim::WakeEdge{sim::WakeKind::kMessageDeliver, "mpi-deliver"});
      return;
    }
    if (!box.early) box.early = std::make_unique<std::deque<Message>>();
    box.early->push_back(std::move(msg));
  }

  /// Called by the last rank entering a collective, before the barrier
  /// releases: snapshot accumulators into result slots and reset. Only a
  /// gather fills the gather buffer, and it hands the buffer over whole as
  /// the shared snapshot.
  void finalizeCollective() {
    reduceSumResult = reduceSumAccum;
    reduceMaxResult = reduceMaxAccum;
    reduceSumAccum = 0.0;
    reduceMaxAccum = -std::numeric_limits<double>::infinity();
    if (!gatherAccum.empty())
      gatherShared = std::make_shared<const std::vector<std::uint64_t>>(
          std::exchange(gatherAccum, {}));
    collArrived = 0;
    if (!splitEntries.empty()) finalizeSplit();
  }

  void finalizeSplit() {
    auto entries = std::exchange(splitEntries, {});
    std::sort(entries.begin(), entries.end());  // color, key, rank
    splitLocalRank.assign(globalRanks.size(), -1);
    std::map<int, std::vector<int>> members;  // color -> old local ranks
    for (const auto& [color, key, rank] : entries)
      members[color].push_back(rank);
    for (auto& [color, ranks] : members) {
      std::vector<int> globals;
      globals.reserve(ranks.size());
      for (std::size_t i = 0; i < ranks.size(); ++i) {
        splitLocalRank[static_cast<std::size_t>(ranks[i])] =
            static_cast<int>(i);
        globals.push_back(globalRanks[static_cast<std::size_t>(ranks[i])]);
      }
      splitGroups.emplace(color,
                          std::make_shared<Group>(sched, mach, torus, coll,
                                                  obs, jitter,
                                                  std::move(globals)));
    }
  }
};

namespace {

sim::Task<> transferAndDeliver(std::shared_ptr<Group> g, int src, int dst,
                               Message msg,
                               std::shared_ptr<sim::Gate> gate) {
  const int srcGlobal = g->globalRanks[static_cast<std::size_t>(src)];
  const int dstGlobal = g->globalRanks[static_cast<std::size_t>(dst)];
  const sim::SimTime sendTime = g->sched.now();
  co_await g->torus.transfer(srcGlobal, dstGlobal, msg.size, msg.trace);
  if (g->obs)
    g->obs->message(srcGlobal, dstGlobal, msg.size, sendTime,
                    g->sched.now());
  g->deliver(dst, std::move(msg));
  gate->fire();
}

// One kMpi wait span per rank per collective, covering arrival through the
// barrier release and the analytic cost delay. Blocked-time attribution
// (obs/attr.hpp) classifies these as barrier wait, so the span must cover
// the full interval a rank is held inside the collective — notably the wait
// for stragglers, which is the paper's "blocked processor" component.
void emitCollSpan(detail::Group& g, int localRank, const char* name,
                  sim::SimTime t0) {
  if (g.obs)
    g.obs->complete(obs::Layer::kMpi,
                    g.globalRanks[static_cast<std::size_t>(localRank)], name,
                    t0, g.sched.now());
}

struct RecvAwaiter {
  Group& g;
  int me;
  Group::Waiter waiter;

  bool await_ready() {
    auto& early = g.boxes[static_cast<std::size_t>(me)].early;
    if (!early) return false;
    for (auto it = early->begin(); it != early->end(); ++it) {
      if (Group::matches(*it, waiter.src, waiter.tag)) {
        waiter.msg = std::move(*it);
        early->erase(it);
        return true;
      }
    }
    return false;
  }
  void await_suspend(std::coroutine_handle<> h) {
    waiter.handle = h;
    g.boxes[static_cast<std::size_t>(me)].waiters.pushBack(&waiter);
  }
  Message await_resume() { return std::move(waiter.msg); }
};

}  // namespace

}  // namespace detail

using detail::Group;

int Comm::size() const { return group_->size(); }

int Comm::globalRank(int localRank) const {
  return group_->globalRanks.at(static_cast<std::size_t>(localRank));
}

const machine::Machine& Comm::machine() const { return group_->mach; }

sim::Scheduler& Comm::scheduler() const { return group_->sched; }

sim::Task<Request> Comm::isend(int dst, int tag, Message msg) {
  auto& g = *group_;
  SIM_CHECK(dst >= 0 && dst < g.size(), "isend destination rank out of bounds");
  msg.tag = tag;
  msg.source = rank_;
  // The call itself: MPI software overhead plus a heavy-tailed jitter
  // (interrupts, allocation, retransmit slots). This is what a worker
  // "perceives" when shipping its checkpoint block to a writer.
  const sim::SimTime callStart = g.sched.now();
  co_await g.sched.delay(g.mach.compute().mpiOverhead +
                         g.jitter->lognormal(7e-6, 0.8));
  msg.trace.hop(obs::Hop::kHandoffSend, callStart, g.sched.now(), msg.size);
  auto gate = std::make_shared<sim::Gate>(g.sched);
  g.sched.spawn(
      detail::transferAndDeliver(group_, rank_, dst, std::move(msg), gate));
  co_return Request(gate);
}

sim::Task<> Comm::send(int dst, int tag, Message msg) {
  Request req = co_await isend(dst, tag, std::move(msg));
  co_await wait(req);
}

sim::Task<Message> Comm::recv(int src, int tag) {
  detail::RecvAwaiter awaiter{*group_, rank_, {src, tag, {}, {}}};
  Message msg = co_await awaiter;
  co_return msg;
}

sim::Task<> Comm::wait(Request req) {
  if (!req.valid()) co_return;
  co_await req.gate_->wait();
}

sim::Task<> Comm::waitAll(const std::vector<Request>& reqs) {
  for (const auto& r : reqs) co_await wait(r);
}

sim::Task<> Comm::barrier() {
  auto& g = *group_;
  const sim::SimTime t0 = g.sched.now();
  if (++g.collArrived == g.size()) g.finalizeCollective();
  co_await g.barrier.arriveAndWait();
  co_await g.sched.delay(g.coll.barrierCost(g.size()));
  detail::emitCollSpan(g, rank_, "barrier", t0);
}

sim::Task<Message> Comm::bcast(int root, Message msg) {
  auto& g = *group_;
  const sim::SimTime t0 = g.sched.now();
  if (rank_ == root) g.bcastSlot = msg;
  if (++g.collArrived == g.size()) g.finalizeCollective();
  co_await g.barrier.arriveAndWait();
  Message result = g.bcastSlot;
  co_await g.sched.delay(
      g.coll.broadcastCost(g.size(), result.size));
  detail::emitCollSpan(g, rank_, "collective", t0);
  co_return result;
}

sim::Task<double> Comm::allReduceSum(double value) {
  auto& g = *group_;
  const sim::SimTime t0 = g.sched.now();
  g.reduceSumAccum += value;
  if (++g.collArrived == g.size()) g.finalizeCollective();
  co_await g.barrier.arriveAndWait();
  const double result = g.reduceSumResult;
  co_await g.sched.delay(g.coll.reduceCost(g.size(), sizeof(double)) +
                         g.coll.broadcastCost(g.size(), sizeof(double)));
  detail::emitCollSpan(g, rank_, "collective", t0);
  co_return result;
}

sim::Task<double> Comm::allReduceMax(double value) {
  auto& g = *group_;
  const sim::SimTime t0 = g.sched.now();
  g.reduceMaxAccum = std::max(g.reduceMaxAccum, value);
  if (++g.collArrived == g.size()) g.finalizeCollective();
  co_await g.barrier.arriveAndWait();
  const double result = g.reduceMaxResult;
  co_await g.sched.delay(g.coll.reduceCost(g.size(), sizeof(double)) +
                         g.coll.broadcastCost(g.size(), sizeof(double)));
  detail::emitCollSpan(g, rank_, "collective", t0);
  co_return result;
}

sim::Task<std::shared_ptr<const std::vector<std::uint64_t>>>
Comm::allGatherU64Shared(std::uint64_t value) {
  auto& g = *group_;
  const sim::SimTime t0 = g.sched.now();
  if (g.gatherAccum.empty())  // first arrival
    g.gatherAccum.resize(static_cast<std::size_t>(g.size()));
  g.gatherAccum[static_cast<std::size_t>(rank_)] = value;
  if (++g.collArrived == g.size()) g.finalizeCollective();
  co_await g.barrier.arriveAndWait();
  auto result = g.gatherShared;
  co_await g.sched.delay(
      g.coll.reduceCost(g.size(), sizeof(std::uint64_t)) +
      g.coll.broadcastCost(g.size(), sizeof(std::uint64_t) * result->size()));
  detail::emitCollSpan(g, rank_, "collective", t0);
  co_return result;
}

sim::Task<Comm> Comm::split(int color, int key) {
  auto& g = *group_;
  const sim::SimTime t0 = g.sched.now();
  g.splitEntries.emplace_back(color, key, rank_);
  if (++g.collArrived == g.size()) g.finalizeCollective();
  co_await g.barrier.arriveAndWait();
  auto sub = g.splitGroups.at(color);
  const int newRank = g.splitLocalRank[static_cast<std::size_t>(rank_)];
  if (++g.splitPickedUp == g.size()) {
    g.splitGroups.clear();
    g.splitLocalRank = {};
    g.splitPickedUp = 0;
  }
  co_await g.sched.delay(g.coll.barrierCost(g.size()));
  detail::emitCollSpan(g, rank_, "collective", t0);
  co_return Comm(std::move(sub), newRank);
}

Runtime::Runtime(sim::Scheduler& sched, const machine::Machine& mach,
                 net::TorusNetwork& torus, net::CollectiveNetwork& coll,
                 std::uint64_t seed, obs::Observability* obs) {
  std::vector<int> ranks(static_cast<std::size_t>(mach.numRanks()));
  for (std::size_t i = 0; i < ranks.size(); ++i)
    ranks[i] = static_cast<int>(i);
  world_ = std::make_shared<Group>(
      sched, mach, torus, coll, obs,
      std::make_shared<sim::RngStream>(seed, "mpi-isend"), std::move(ranks));
}

Runtime::~Runtime() = default;

void Runtime::spawnAll(std::function<sim::Task<>(Comm)> program) {
  // Pin the callable: rank coroutine frames reference its captures.
  programs_.push_back(std::make_shared<std::function<sim::Task<>(Comm)>>(
      std::move(program)));
  auto& fn = *programs_.back();
  for (int r = 0; r < world_->size(); ++r)
    world_->sched.spawn(fn(Comm(world_, r)));
}

Comm Runtime::world(int rank) const { return Comm(world_, rank); }

int Runtime::numRanks() const { return world_->size(); }

}  // namespace bgckpt::mpi
