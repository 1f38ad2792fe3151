// Pooled allocator for coroutine frames.
//
// Every simulated process and awaited sub-task is a coroutine, so a 64K-rank
// run allocates and frees hundreds of thousands of frames with a handful of
// distinct sizes. `FrameArena` recycles them from 256 KiB slabs. A slab
// serves one 64-byte size class at a time, keeps its own free list and a
// count of its live frames, and is aligned to its size, so freeing a frame
// finds its slab by masking the frame's address. When a slab's last frame is
// freed it goes onto the thread's empty-slab list, and any class may take it
// from there: a class that runs out of room takes a partly used slab of its
// own first, then an empty one, and only then new memory. Slab storage is
// therefore bounded by the peak of live frames plus partly used slabs, not by
// the sum of every class's own peak, and steady-state frame churn never
// touches malloc. Slabs go back to the system only at thread exit.
// `Task<T>::promise_type` (task.hpp) and the scheduler's RootRunner opt in by
// inheriting `detail::FrameArenaAllocated`.
//
// The arena is thread-local: the simulator is single-threaded, and hostio's
// thread-per-rank backend does not run coroutines, but a per-thread arena
// keeps the allocator correct even if tasks are ever built on another
// thread (frames must then be destroyed on the thread that created them —
// already true of every current use).
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <unordered_set>
#include <vector>

// Under AddressSanitizer the arena becomes a pass-through to the global
// allocator: pooled recycling would hide use-after-free of coroutine frames
// from ASan (a freed frame looks "live" because its block is on a free
// list), which is exactly the bug class the sanitizer CI exists to catch.
#if defined(__SANITIZE_ADDRESS__)
#define BGCKPT_ARENA_PASSTHROUGH 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define BGCKPT_ARENA_PASSTHROUGH 1
#endif
#endif
#ifndef BGCKPT_ARENA_PASSTHROUGH
#define BGCKPT_ARENA_PASSTHROUGH 0
#endif

namespace bgckpt::sim {

class FrameArena {
 public:
  struct Stats {
    std::uint64_t allocs = 0;     // total allocate() calls
    std::uint64_t poolHits = 0;   // served from memory the arena already
                                  // held: a freed block, or a block of a
                                  // slab that emptied and was taken back
    std::uint64_t oversized = 0;  // fell through to operator new
    std::size_t slabBytes = 0;    // slab storage held, empty slabs included
    std::size_t liveBytes = 0;    // currently outstanding frame bytes
  };

  /// Every slab is this many bytes and aligned to its size.
  static constexpr std::size_t kSlabBytes = 256 * 1024;

  /// The calling thread's arena.
  static FrameArena& instance();

  void* allocate(std::size_t bytes);
  void deallocate(void* p, std::size_t bytes) noexcept;

  const Stats& stats() const { return stats_; }

  // ------------------------------------------------------- audit (simcheck)
  // When auditing, the arena tracks every frame pointer handed out so the
  // SimChecker can detect leaked frames, double frees, and handles resumed
  // after their frame was freed. Only allocations made while the audit is
  // active are tracked; the normal hot path pays one predictable branch.
  enum class PointerState { kUnknown, kLive, kFreed };

  void beginAudit();
  void endAudit();
  bool auditing() const { return auditing_; }
  /// Frames allocated during the audit and not yet freed.
  std::size_t auditLiveCount() const { return auditLive_.size(); }
  /// Deallocations of a pointer that was already freed (and not reissued).
  std::uint64_t auditDoubleFrees() const { return auditDoubleFrees_; }
  /// Classify a pointer (e.g. a coroutine handle address) seen in the audit.
  PointerState pointerState(const void* p) const {
    if (auditLive_.count(p) != 0) return PointerState::kLive;
    if (auditFreed_.count(p) != 0) return PointerState::kFreed;
    return PointerState::kUnknown;
  }

  FrameArena() = default;
  FrameArena(const FrameArena&) = delete;
  FrameArena& operator=(const FrameArena&) = delete;
  ~FrameArena();

 private:
  // Frames round up to 64-byte granularity; sizes beyond the largest class
  // (a pathological coroutine frame) fall through to global operator new.
  static constexpr std::size_t kGranularity = 64;
  static constexpr std::size_t kMaxClasses = 64;  // up to 4 KiB pooled
  // New slabs arrive eight at a time: the heap keeps about two pages of its
  // own around every aligned allocation, 3% of RSS at one slab per call.
  static constexpr std::size_t kChunkBytes = 8 * kSlabBytes;

  struct FreeBlock {
    FreeBlock* next;
  };

  // The header at the start of every slab; the slab's blocks follow it.
  struct Slab {
    Slab* prev;               // neighbours on its class's partial list;
    Slab* next;               // the empty list links through next only
    FreeBlock* free;          // this slab's freed blocks
    char* cursor;             // first block never handed out in this class
    char* limit;              // end of the slab's last whole block
    std::uint32_t live;       // frames handed out and not yet freed
    std::uint32_t blockBytes;
    std::uint32_t reused;     // 1 once it has emptied before (poolHits)
  };
  static_assert(sizeof(Slab) <= kGranularity);
  static_assert((kSlabBytes & (kSlabBytes - 1)) == 0);

  static Slab* slabOf(void* p) {
    char* c = static_cast<char*>(p);
    return reinterpret_cast<Slab*>(
        c - (reinterpret_cast<std::uintptr_t>(c) & (kSlabBytes - 1)));
  }
  static bool hasRoom(const Slab* s) {
    return s->free != nullptr || s->cursor != s->limit;
  }
  static void link(Slab*& head, Slab* s);
  static void unlink(Slab*& head, Slab* s);
  void takeSlab(std::size_t cls);
  void auditOnAllocate(const void* p);
  void auditOnDeallocate(const void* p) noexcept;

  // Per class, the slabs with room; allocation takes from the head. A full
  // slab is on no list until one of its frames is freed.
  Slab* partial_[kMaxClasses] = {};
  Slab* empty_ = nullptr;      // slabs with no live frame, for any class
  std::vector<char*> chunks_;  // every slab's storage, freed at thread exit
  Stats stats_;

  bool auditing_ = false;
  std::unordered_set<const void*> auditLive_;
  std::unordered_set<const void*> auditFreed_;
  std::uint64_t auditDoubleFrees_ = 0;
};

namespace detail {

/// Mixin giving a coroutine promise (and therefore its frame) arena-backed
/// allocation. The sized delete is required so blocks return to the right
/// size class.
struct FrameArenaAllocated {
  static void* operator new(std::size_t bytes) {
    return FrameArena::instance().allocate(bytes);
  }
  static void operator delete(void* p, std::size_t bytes) noexcept {
    FrameArena::instance().deallocate(p, bytes);
  }
};

}  // namespace detail

}  // namespace bgckpt::sim
