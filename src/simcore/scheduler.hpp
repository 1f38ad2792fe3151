// Discrete-event scheduler: the heart of the simulation.
//
// The scheduler owns a time-ordered event queue. Events are either plain
// callbacks or coroutine resumptions. Simulated processes are `Task<>`
// coroutines started with `spawn`; they advance simulated time by awaiting
// `delay(dt)` and interact through the synchronisation primitives in
// channel.hpp / resource.hpp, all of which route wakeups through this queue
// so that execution order is deterministic: (time, insertion sequence).
//
// The queue is a FIFO for events due now plus one binary min-heap on
// (time, seq) for the future. The FIFO exists because every wakeup
// (Resource::release, Channel::push, Gate::fire, Barrier release, MPI
// delivery, spawn) is zero-delay: those events share time == now and arrive
// in seq order, so they push and pop in O(1) with no comparisons. In the
// model only `delay(dt > 0)` reaches the heap. Event payloads (coroutine
// handle / callback) live in a recycled node pool, so steady-state
// scheduling allocates nothing and heap sifts move 24-byte (time, seq,
// index) keys instead of whole events. Dispatch takes the FIFO head unless
// the heap top is earlier in (time, seq): the order any correct priority
// queue keyed on (time, seq) gives.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <source_location>
#include <stdexcept>
#include <vector>

#include "simcore/task.hpp"
#include "simcore/units.hpp"

namespace bgckpt::sim {

class SimChecker;

/// Thrown out of Scheduler::run when a root task exited with an exception.
class SimulationError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Observation points on the event loop. The scheduler holds at most one
/// hooks object (not owned) and calls it only when installed, so the
/// uninstrumented hot path pays a single null-pointer branch per event.
/// src/obs provides the standard implementation (obs::SchedulerProbe).
class SchedulerHooks {
 public:
  virtual ~SchedulerHooks() = default;
  /// After each event is dispatched. `queueDepth` is the post-pop depth.
  virtual void onDispatch(std::size_t queueDepth) = 0;
  /// A root task was spawned / finished (normally or with an error).
  /// `rootId` is a dense 0-based sequence number in spawn order.
  virtual void onRootSpawned(std::uint64_t rootId, SimTime now) = 0;
  virtual void onRootDone(std::uint64_t rootId, SimTime now) = 0;
};

class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time in seconds.
  SimTime now() const { return now_; }

  /// Queue a coroutine resumption `delay` seconds from now. The defaulted
  /// source location attributes the scheduling site when a SimChecker is
  /// installed (past-event and tie-order-hazard reports).
  void scheduleResume(
      Duration delay, std::coroutine_handle<> h,
      std::source_location loc = std::source_location::current());

  /// Queue a callback `delay` seconds from now.
  void scheduleCall(Duration delay, std::function<void()> fn,
                    std::source_location loc = std::source_location::current());

  /// Awaitable that suspends the current task for `dt` simulated seconds.
  [[nodiscard]] auto delay(
      Duration dt, std::source_location loc = std::source_location::current()) {
    struct Awaiter {
      Scheduler& sched;
      Duration dt;
      std::source_location loc;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        sched.scheduleResume(dt, h, loc);
      }
      void await_resume() const noexcept {}
    };
    if (dt < 0) throw SimulationError("negative delay");
    return Awaiter{*this, dt, loc};
  }

  /// Start a root process. It begins running when `run()` is next called.
  void spawn(Task<> task);

  /// Process events until the queue is empty. Rethrows the first root-task
  /// exception (after the queue drains or immediately on throw).
  /// Returns the number of events processed.
  std::uint64_t run();

  /// Process events with timestamps <= `untilTime`. Advances `now()` to
  /// `untilTime` if the queue empties earlier.
  std::uint64_t runUntil(SimTime untilTime);

  /// Root tasks spawned but not yet finished. Nonzero after run() returns
  /// means deadlock: someone is waiting on a wakeup that will never come.
  std::size_t liveRoots() const { return liveRoots_; }

  std::uint64_t eventsProcessed() const { return eventsProcessed_; }

  /// Events currently queued (diagnostic; sampled by SchedulerHooks).
  std::size_t queueDepth() const { return size_; }

  /// Event-pool slots ever allocated (diagnostic: a drained-and-refilled
  /// queue reuses slots instead of growing, which tests assert).
  std::size_t eventPoolSize() const { return pool_.size(); }

  /// Install (or clear, with nullptr) the observation hooks. The hooks
  /// object is borrowed and must outlive the scheduler or be cleared first.
  void setHooks(SchedulerHooks* hooks) { hooks_ = hooks; }

  /// Install (or clear) the runtime invariant checker (simcheck.hpp).
  /// Borrowed; normally wired through SimChecker::attach. Resources query
  /// this at release/teardown, the dispatch loop feeds it event metadata.
  void setChecker(SimChecker* check);
  SimChecker* checker() const { return check_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct EventNode {
    SimTime time = 0.0;
    std::uint64_t seq = 0;
    std::coroutine_handle<> handle;  // null => callback event
    std::function<void()> callback;
    std::uint32_t nextFree = kNil;
  };
  /// A future event's heap key. The key carries its own (time, seq) so
  /// sifts compare cache-local entries instead of gather-loading the pool.
  struct HeapEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t idx;
  };
  struct Later {  // max-heap adaptor ordering -> min-(time, seq) heap
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Scheduling-site metadata, kept in a side table parallel to the event
  /// pool so the checker-off hot path carries no extra per-node weight. Only
  /// written while a SimChecker is installed; `file == nullptr` marks slots
  /// scheduled before the checker attached.
  struct EventMeta {
    SimTime scheduledAt = 0.0;
    const char* file = nullptr;
    unsigned line = 0;
  };

  std::uint32_t allocNode();
  void freeNode(std::uint32_t idx);
  void pushIndex(std::uint32_t idx);
  /// Pop the globally minimal (time, seq) event; requires size_ > 0.
  std::uint32_t popReady();
  /// Timestamp of the next event (infinity when empty).
  SimTime nextEventTime() const;
  /// Dispatch one event; requires a non-empty queue.
  void step();

  void noteRootDone(std::uint64_t rootId) {
    --liveRoots_;
    if (hooks_) hooks_->onRootDone(rootId, now_);
  }
  void noteRootFailed(std::uint64_t rootId, std::exception_ptr ep) {
    if (!firstError_) firstError_ = ep;
    --liveRoots_;
    if (hooks_) hooks_->onRootDone(rootId, now_);
  }

  friend struct RootRunner;

  // Event pool.
  std::vector<EventNode> pool_;
  std::uint32_t freeHead_ = kNil;

  // Events at exactly now_, FIFO (== seq) order.
  std::vector<std::uint32_t> nowQ_;
  std::size_t nowHead_ = 0;

  // Future events: a binary min-heap on (time, seq).
  std::vector<HeapEntry> heap_;

  std::size_t size_ = 0;
  SimTime now_ = 0.0;
  std::uint64_t nextSeq_ = 0;
  std::uint64_t eventsProcessed_ = 0;
  std::uint64_t nextRootId_ = 0;
  std::size_t liveRoots_ = 0;
  std::exception_ptr firstError_;
  SchedulerHooks* hooks_ = nullptr;
  SimChecker* check_ = nullptr;
  std::vector<EventMeta> meta_;  // parallel to pool_; used iff check_ set
};

}  // namespace bgckpt::sim
