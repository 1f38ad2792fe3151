// Higher-level synchronisation built on the scheduler: one-shot gates,
// cyclic barriers, and wait groups (fork/join counters). Waiters queue
// through their own awaiters (waitlist.hpp), so none of these allocates.
#pragma once

#include <coroutine>
#include <cstddef>

#include "simcore/scheduler.hpp"
#include "simcore/simcheck.hpp"
#include "simcore/waitlist.hpp"

namespace bgckpt::sim {

/// One-shot event: waiters suspend until `fire()`; waits after firing
/// complete immediately. Cannot be reset.
class Gate {
 public:
  explicit Gate(Scheduler& sched) : sched_(sched) {}
  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;

  bool fired() const { return fired_; }

  void fire() {
    if (fired_) return;
    fired_ = true;
    while (!waiters_.empty())
      sched_.scheduleResume(0.0, waiters_.popFront()->handle);
  }

  [[nodiscard]] auto wait() {
    struct Awaiter {
      Gate& gate;
      ParkedHandle waiter;
      bool await_ready() const { return gate.fired_; }
      void await_suspend(std::coroutine_handle<> h) {
        waiter.handle = h;
        gate.waiters_.pushBack(&waiter);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, {}};
  }

 private:
  Scheduler& sched_;
  bool fired_ = false;
  WaitList<ParkedHandle> waiters_;
};

/// Cyclic barrier for `parties` processes. The last arrival releases all and
/// the barrier resets for the next round.
class Barrier {
 public:
  Barrier(Scheduler& sched, std::size_t parties)
      : sched_(sched), parties_(parties) {
    SIM_CHECK(parties > 0, "Barrier needs at least one party");
  }
  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  std::size_t parties() const { return parties_; }
  std::size_t arrived() const { return waiters_.size(); }

  [[nodiscard]] auto arriveAndWait() {
    struct Awaiter {
      Barrier& bar;
      ParkedHandle waiter;
      bool await_ready() {
        // The final arrival does not suspend; it releases everyone before
        // proceeding, which also resets the barrier for the next round.
        if (bar.waiters_.size() + 1 == bar.parties_) {
          bar.releaseAll();
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        waiter.handle = h;
        bar.waiters_.pushBack(&waiter);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, {}};
  }

 private:
  void releaseAll() {
    while (!waiters_.empty())
      sched_.scheduleResume(0.0, waiters_.popFront()->handle);
  }

  Scheduler& sched_;
  std::size_t parties_;
  WaitList<ParkedHandle> waiters_;
};

/// Fork/join counter: `add()` before spawning work, `done()` when each piece
/// finishes, `wait()` suspends until the count returns to zero.
class WaitGroup {
 public:
  explicit WaitGroup(Scheduler& sched) : gate_(sched) {}

  void add(std::size_t n = 1) {
    SIM_CHECK(!gate_.fired(), "WaitGroup reused after completion");
    count_ += n;
  }

  void done() {
    SIM_CHECK(count_ > 0, "WaitGroup::done without a matching add");
    if (--count_ == 0) gate_.fire();
  }

  [[nodiscard]] auto wait() {
    if (count_ == 0) gate_.fire();
    return gate_.wait();
  }

  std::size_t pending() const { return count_; }

 private:
  Gate gate_;
  std::size_t count_ = 0;
};

}  // namespace bgckpt::sim
