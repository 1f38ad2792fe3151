// Intrusive FIFO of suspended waiters.
//
// Every wait queue in the simulator (Resource, Gate, Barrier, Channel, the
// mpisim mailboxes) holds coroutines parked inside an awaiter, and an
// awaiter lives in its suspended coroutine's frame until that coroutine is
// resumed. So the queue threads a `next` pointer through the waiter structs
// themselves: an empty queue is two pointers and a count, and queuing never
// allocates. At 64K ranks that matters — a default-constructed std::deque
// allocates ~600 bytes before holding anything, and the stack keeps several
// per rank.
//
// A waiter must be unlinked before its coroutine resumes (the frame, and the
// link with it, may be gone afterwards); popFront/takeFirst do that.
#pragma once

#include <coroutine>
#include <cstddef>

namespace bgckpt::sim {

/// FIFO of `T*`, linked through `T::next` (a `T*` member the list owns
/// while the waiter is queued).
template <typename T>
class WaitList {
 public:
  WaitList() = default;
  WaitList(const WaitList&) = delete;
  WaitList& operator=(const WaitList&) = delete;

  bool empty() const { return head_ == nullptr; }
  std::size_t size() const { return size_; }
  T* front() const { return head_; }

  void pushBack(T* w) {
    w->next = nullptr;
    if (tail_) {
      tail_->next = w;
    } else {
      head_ = w;
    }
    tail_ = w;
    ++size_;
  }

  /// Unlink the oldest waiter; requires !empty().
  T* popFront() {
    T* w = head_;
    head_ = w->next;
    if (!head_) tail_ = nullptr;
    --size_;
    return w;
  }

  /// Unlink the oldest waiter satisfying `pred`, or return nullptr. The
  /// others keep their order.
  template <typename Pred>
  T* takeFirst(Pred pred) {
    T* prev = nullptr;
    for (T* w = head_; w; prev = w, w = w->next) {
      if (!pred(*w)) continue;
      (prev ? prev->next : head_) = w->next;
      if (tail_ == w) tail_ = prev;
      --size_;
      return w;
    }
    return nullptr;
  }

 private:
  T* head_ = nullptr;
  T* tail_ = nullptr;
  std::size_t size_ = 0;
};

/// The plain waiter: a parked coroutine and its link (Gate, Barrier).
struct ParkedHandle {
  std::coroutine_handle<> handle;
  ParkedHandle* next = nullptr;
};

}  // namespace bgckpt::sim
