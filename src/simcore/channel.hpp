// Message channels between simulated processes.
//
// `Channel<T>` is a FIFO queue with suspending receive and (optionally)
// bounded, suspending send. Wakeups are routed through the scheduler at the
// current simulated time, preserving global deterministic ordering.
//
// Suspended senders and receivers queue through their own awaiters
// (waitlist.hpp); an awaiter lives in its suspended coroutine's frame, so
// the links are stable until the coroutine is resumed.
#pragma once

#include <coroutine>
#include <cstddef>
#include <deque>
#include <limits>
#include <optional>
#include <utility>

#include "simcore/scheduler.hpp"
#include "simcore/waitlist.hpp"

namespace bgckpt::sim {

template <typename T>
class Channel {
 public:
  /// An unbounded channel unless a capacity is given.
  explicit Channel(
      Scheduler& sched,
      std::size_t capacity = std::numeric_limits<std::size_t>::max())
      : sched_(sched), capacity_(capacity) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Number of queued (sent, not yet received) items.
  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  std::size_t capacity() const { return capacity_; }

  /// Non-suspending send. Intended for unbounded channels; on a bounded
  /// channel it may transiently exceed capacity.
  void push(T value) {
    if (!recvWaiters_.empty()) {
      RecvWaiter* w = recvWaiters_.popFront();
      w->value.emplace(std::move(value));
      sched_.scheduleResume(0.0, w->handle,
                            WakeEdge{WakeKind::kChannelPush, "channel"});
      return;
    }
    items_.push_back(std::move(value));
  }

  /// Awaitable send: suspends while the channel is at capacity.
  auto send(T value) { return SendAwaiter{*this, std::move(value), {}}; }

  /// Awaitable receive: suspends until an item is available.
  auto recv() { return RecvAwaiter{*this}; }

  /// Non-suspending receive; empty optional when nothing is queued.
  std::optional<T> tryRecv() {
    if (items_.empty()) return std::nullopt;
    T v = std::move(items_.front());
    items_.pop_front();
    wakeOneSender();
    return v;
  }

 private:
  struct RecvWaiter {
    std::coroutine_handle<> handle;
    std::optional<T> value;
    RecvWaiter* next = nullptr;
  };
  struct SendWaiter {
    std::coroutine_handle<> handle;
    SendWaiter* next = nullptr;
  };

  struct SendAwaiter {
    Channel& ch;
    T value;
    SendWaiter waiter;
    bool await_ready() const {
      return ch.items_.size() < ch.capacity_ || !ch.recvWaiters_.empty();
    }
    void await_suspend(std::coroutine_handle<> h) {
      waiter.handle = h;
      ch.sendWaiters_.pushBack(&waiter);
    }
    void await_resume() { ch.push(std::move(value)); }
  };

  struct RecvAwaiter : RecvWaiter {
    Channel& ch;
    explicit RecvAwaiter(Channel& c) : ch(c) {}
    bool await_ready() {
      if (ch.items_.empty()) return false;
      this->value.emplace(std::move(ch.items_.front()));
      ch.items_.pop_front();
      ch.wakeOneSender();
      return true;
    }
    void await_suspend(std::coroutine_handle<> h) {
      this->handle = h;
      ch.recvWaiters_.pushBack(this);
      // A suspended sender holds the item we are waiting for in its frame;
      // wake it so it can deposit the value (delivered directly to us).
      ch.wakeOneSender();
    }
    T await_resume() { return std::move(*this->value); }
  };

  void wakeOneSender() {
    if (!sendWaiters_.empty()) {
      SendWaiter* w = sendWaiters_.popFront();
      sched_.scheduleResume(0.0, w->handle,
                            WakeEdge{WakeKind::kChannelPush, "channel"});
    }
  }

  Scheduler& sched_;
  std::size_t capacity_;
  std::deque<T> items_;
  WaitList<RecvWaiter> recvWaiters_;
  WaitList<SendWaiter> sendWaiters_;
};

}  // namespace bgckpt::sim
