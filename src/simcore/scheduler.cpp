#include "simcore/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "simcore/arena.hpp"
#include "simcore/simcheck.hpp"

namespace bgckpt::sim {

// Detached driver coroutine that owns a root Task for its whole lifetime and
// reports completion/failure back to the scheduler. It starts suspended so
// that spawn() can enqueue its first resume through the event queue (spawn
// order == first-run order); its frame self-destructs at final_suspend
// (suspend_never), by which point the owned Task local has been destroyed.
struct [[nodiscard]] RootRunner {
  struct promise_type : detail::FrameArenaAllocated {
    RootRunner get_return_object() {
      return RootRunner{
          std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() const noexcept { return {}; }
    std::suspend_never final_suspend() const noexcept { return {}; }
    void return_void() const noexcept {}
    void unhandled_exception() noexcept { std::terminate(); }
  };

  [[nodiscard]] static RootRunner drive(Scheduler& sched, Task<> task,
                                        std::uint64_t id) {
    try {
      co_await std::move(task);
      sched.noteRootDone(id);
    } catch (...) {
      sched.noteRootFailed(id, std::current_exception());
    }
  }

  std::coroutine_handle<> handle;
};

// ------------------------------------------------------------ event pool --

std::uint32_t Scheduler::allocNode() {
  if (freeHead_ != kNil) {
    const std::uint32_t idx = freeHead_;
    freeHead_ = pool_[idx].nextFree;
    return idx;
  }
  pool_.emplace_back();
  return static_cast<std::uint32_t>(pool_.size() - 1);
}

void Scheduler::freeNode(std::uint32_t idx) {
  EventNode& n = pool_[idx];
  n.handle = {};
  n.callback = nullptr;  // drop captures promptly
  n.nextFree = freeHead_;
  freeHead_ = idx;
}

// --------------------------------------------------------------- routing --

void Scheduler::pushIndex(std::uint32_t idx) {
  const EventNode& n = pool_[idx];
  ++size_;
  if (n.time <= now_) {
    // Zero-delay wakeup. All entries share time == now_ and arrive in seq
    // order, so a plain FIFO suffices.
    nowQ_.push_back(idx);
    return;
  }
  heap_.push_back(HeapEntry{n.time, n.seq, idx});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void Scheduler::setChecker(SimChecker* check) {
  check_ = check;
  if (check_ != nullptr && meta_.size() < pool_.size())
    meta_.resize(pool_.size());
}

std::uint32_t Scheduler::popReady() {
  SIM_DCHECK(size_ > 0, "pop from an empty event queue");
  --size_;
  if (nowHead_ < nowQ_.size()) {
    // FIFO entries share time == now_; the heap can hold an equal-time
    // event with a smaller seq (scheduled earlier, for what was then the
    // future), which must go first.
    const std::uint32_t idx = nowQ_[nowHead_];
    const EventNode& n = pool_[idx];
    if (heap_.empty() ||
        Later{}(heap_.front(), HeapEntry{n.time, n.seq, idx})) {
      if (++nowHead_ == nowQ_.size()) {
        nowQ_.clear();
        nowHead_ = 0;
      }
      return idx;
    }
  }
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const std::uint32_t idx = heap_.back().idx;
  heap_.pop_back();
  return idx;
}

SimTime Scheduler::nextEventTime() const {
  if (nowHead_ < nowQ_.size()) return now_;
  if (!heap_.empty()) return heap_.front().time;
  return std::numeric_limits<SimTime>::infinity();
}

// -------------------------------------------------------------- dispatch --

void Scheduler::scheduleResume(Duration delayTime, std::coroutine_handle<> h,
                               std::source_location loc) {
  const SimTime t = now_ + delayTime;
  const std::uint64_t seq = nextSeq_++;
  if (check_) check_->onSchedule(now_, t, loc);
  const std::uint32_t idx = allocNode();
  EventNode& n = pool_[idx];
  n.time = t;
  n.seq = seq;
  n.handle = h;
  if (check_) {
    if (meta_.size() < pool_.size()) meta_.resize(pool_.size());
    meta_[idx] = EventMeta{now_, loc.file_name(), loc.line()};
  }
  pushIndex(idx);
}

void Scheduler::scheduleCall(Duration delayTime, std::function<void()> fn,
                             std::source_location loc) {
  const SimTime t = now_ + delayTime;
  const std::uint64_t seq = nextSeq_++;
  if (check_) check_->onSchedule(now_, t, loc);
  const std::uint32_t idx = allocNode();
  EventNode& n = pool_[idx];
  n.time = t;
  n.seq = seq;
  n.handle = nullptr;
  n.callback = std::move(fn);
  if (check_) {
    if (meta_.size() < pool_.size()) meta_.resize(pool_.size());
    meta_[idx] = EventMeta{now_, loc.file_name(), loc.line()};
  }
  pushIndex(idx);
}

void Scheduler::spawn(Task<> task) {
  ++liveRoots_;
  const std::uint64_t id = nextRootId_++;
  if (hooks_) hooks_->onRootSpawned(id, now_);
  RootRunner runner = RootRunner::drive(*this, std::move(task), id);
  scheduleResume(0.0, runner.handle);
}

void Scheduler::step() {
  const std::uint32_t idx = popReady();
  EventNode& n = pool_[idx];
  now_ = n.time;
  const std::coroutine_handle<> h = n.handle;
  std::function<void()> cb;
  if (!h) cb = std::move(n.callback);
  if (check_) {
    const EventMeta meta = idx < meta_.size() ? meta_[idx] : EventMeta{};
    check_->onDispatch(now_, meta.scheduledAt, meta.file, meta.line);
    if (h && FrameArena::instance().pointerState(h.address()) ==
                 FrameArena::PointerState::kFreed)
      check_->onStaleResume(now_, h.address());
  }
  // Recycle the slot before dispatching so events scheduled from inside the
  // handler reuse it.
  freeNode(idx);
  ++eventsProcessed_;
  if (h) {
    h.resume();
  } else {
    cb();
  }
  if (hooks_) hooks_->onDispatch(size_);
}

std::uint64_t Scheduler::run() {
  const std::uint64_t before = eventsProcessed_;
  while (size_ > 0) {
    step();
    if (firstError_) break;
  }
  if (firstError_) {
    auto ep = std::exchange(firstError_, nullptr);
    std::rethrow_exception(ep);
  }
  return eventsProcessed_ - before;
}

std::uint64_t Scheduler::runUntil(SimTime untilTime) {
  const std::uint64_t before = eventsProcessed_;
  while (size_ > 0 && nextEventTime() <= untilTime) {
    step();
    if (firstError_) break;
  }
  if (now_ < untilTime) now_ = untilTime;
  if (firstError_) {
    auto ep = std::exchange(firstError_, nullptr);
    std::rethrow_exception(ep);
  }
  return eventsProcessed_ - before;
}

}  // namespace bgckpt::sim
