// Counted resources with FIFO admission.
//
// A `Resource` models a server, link slot pool, or token bucket: it holds a
// fixed number of tokens; `acquire(n)` suspends until `n` tokens can be
// granted, strictly in arrival order (no small-request bypass — this is the
// queueing discipline of a storage server or lock manager). `Mutex` is the
// single-token special case. `ScopedTokens` releases on destruction.
//
// Waiters queue through their own awaiters (waitlist.hpp), so a Resource is
// 56 bytes with nothing on the heap, idle or contended; the torus keeps two
// per node and fssim two per file.
//
// When a SimChecker is installed on the scheduler (simcheck.hpp), every
// release is balance-checked against the token total and each Resource
// verifies at destruction that all tokens came back and no waiter is still
// queued — the name passed at construction attributes the report.
#pragma once

#include <coroutine>
#include <cstdint>
#include <source_location>

#include "simcore/scheduler.hpp"
#include "simcore/simcheck.hpp"
#include "simcore/waitlist.hpp"

namespace bgckpt::sim {

class Resource {
 public:
  Resource(Scheduler& sched, std::int64_t tokens,
           const char* name = "resource")
      : sched_(sched), available_(tokens), total_(tokens), name_(name) {
    SIM_CHECK(tokens > 0, "Resource needs a positive token count");
  }

  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  ~Resource() {
    if (SimChecker* check = sched_.checker())
      check->onResourceTeardown(name_, available_, total_, waiters_.size());
  }

  std::int64_t available() const { return available_; }
  std::int64_t total() const { return total_; }
  const char* name() const { return name_; }
  std::size_t queueLength() const { return waiters_.size(); }

  /// Awaitable acquisition of `n` tokens (FIFO).
  [[nodiscard]] auto acquire(std::int64_t n = 1) {
    SIM_CHECK(n > 0 && n <= total_,
              "acquire amount must be within the resource total");
    return Awaiter{*this, {{}, n}};
  }

  /// Return `n` tokens and admit as many queued waiters as now fit.
  void release(std::int64_t n = 1,
               std::source_location loc = std::source_location::current()) {
    available_ += n;
    if (available_ > total_) {
      if (SimChecker* check = sched_.checker()) {
        check->onResourceOverRelease(name_, available_, total_, loc);
        available_ = total_;  // keep the pool sane in warn mode
      } else {
        detail::simCheckFail("available_ <= total_",
                             "Resource over-release (double release?)",
                             loc.file_name(), static_cast<int>(loc.line()));
      }
    }
    while (!waiters_.empty() && waiters_.front()->amount <= available_) {
      Waiter* w = waiters_.popFront();
      available_ -= w->amount;
      sched_.scheduleResume(0.0, w->handle);
    }
  }

 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    std::int64_t amount = 0;
    Waiter* next = nullptr;
  };

  struct Awaiter {
    Resource& res;
    Waiter waiter;
    bool await_ready() {
      // FIFO: even if tokens are free, queued waiters go first.
      if (res.waiters_.empty() && res.available_ >= waiter.amount) {
        res.available_ -= waiter.amount;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      waiter.handle = h;
      res.waiters_.pushBack(&waiter);
    }
    void await_resume() const noexcept {}
  };

  Scheduler& sched_;
  std::int64_t available_;
  std::int64_t total_;
  const char* name_;
  WaitList<Waiter> waiters_;
};

/// RAII helper: acquire then release on scope exit.
///   auto hold = co_await ScopedTokens::take(res, n); ... (released at `}`)
/// or, when the acquire was already awaited separately:
///   ScopedTokens hold(res, n);
class [[nodiscard]] ScopedTokens {
 public:
  ScopedTokens(Resource& res, std::int64_t n) : res_(&res), n_(n) {}
  ScopedTokens(ScopedTokens&& o) noexcept : res_(o.res_), n_(o.n_) {
    o.res_ = nullptr;
  }
  ScopedTokens& operator=(ScopedTokens&& o) noexcept {
    if (this != &o) {
      releaseNow();
      res_ = o.res_;
      n_ = o.n_;
      o.res_ = nullptr;
    }
    return *this;
  }
  ScopedTokens(const ScopedTokens&) = delete;
  ScopedTokens& operator=(const ScopedTokens&) = delete;
  ~ScopedTokens() { releaseNow(); }

  /// Awaitable factory: acquire `n` tokens, hand back the release guard.
  [[nodiscard]] static Task<ScopedTokens> take(Resource& res, std::int64_t n) {
    co_await res.acquire(n);
    co_return ScopedTokens(res, n);
  }

  void releaseNow() {
    if (res_) {
      res_->release(n_);
      res_ = nullptr;
    }
  }

 private:
  Resource* res_;
  std::int64_t n_;
};

class Mutex {
 public:
  explicit Mutex(Scheduler& sched, const char* name = "mutex")
      : res_(sched, 1, name) {}
  [[nodiscard]] auto lock() { return res_.acquire(1); }
  void unlock() { res_.release(1); }
  Resource& resource() { return res_; }

 private:
  Resource res_;
};

}  // namespace bgckpt::sim
