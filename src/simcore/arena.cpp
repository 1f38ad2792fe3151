#include "simcore/arena.hpp"

#include <cstdlib>

namespace bgckpt::sim {

FrameArena& FrameArena::instance() {
  thread_local FrameArena arena;
  return arena;
}

FrameArena::~FrameArena() {
  for (char* chunk : chunks_)
    ::operator delete(chunk, std::align_val_t{kSlabBytes});
}

void FrameArena::beginAudit() {
  auditing_ = true;
  auditLive_.clear();
  auditFreed_.clear();
  auditDoubleFrees_ = 0;
}

void FrameArena::endAudit() {
  auditing_ = false;
  auditLive_.clear();
  auditFreed_.clear();
}

void FrameArena::auditOnAllocate(const void* p) {
  auditLive_.insert(p);
  auditFreed_.erase(p);
}

void FrameArena::auditOnDeallocate(const void* p) noexcept {
  if (auditLive_.erase(p) != 0) {
    auditFreed_.insert(p);
  } else if (auditFreed_.count(p) != 0) {
    // Freed while already on the freed list and never reissued: double free.
    ++auditDoubleFrees_;
  }
  // Unknown pointers (allocated before the audit began) free silently.
}

void* FrameArena::allocate(std::size_t bytes) {
  ++stats_.allocs;
  if (bytes == 0) bytes = 1;
  if (BGCKPT_ARENA_PASSTHROUGH) {
    void* p = ::operator new(bytes);
    if (auditing_) auditOnAllocate(p);
    return p;
  }
  const std::size_t cls = (bytes + kGranularity - 1) / kGranularity;
  if (cls > kMaxClasses) {
    ++stats_.oversized;
    void* p = ::operator new(bytes);
    if (auditing_) auditOnAllocate(p);
    return p;
  }
  stats_.liveBytes += cls * kGranularity;
  Slab*& head = partial_[cls - 1];
  if (head == nullptr) takeSlab(cls);
  Slab* s = head;
  void* p = nullptr;
  if (s->free != nullptr) {
    ++stats_.poolHits;
    p = s->free;
    s->free = s->free->next;
  } else {
    stats_.poolHits += s->reused;
    p = s->cursor;
    s->cursor += s->blockBytes;
  }
  ++s->live;
  if (!hasRoom(s)) unlink(head, s);
  if (auditing_) auditOnAllocate(p);
  return p;
}

void FrameArena::deallocate(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  if (auditing_) auditOnDeallocate(p);
  if (bytes == 0) bytes = 1;
  if (BGCKPT_ARENA_PASSTHROUGH) {
    ::operator delete(p);
    return;
  }
  const std::size_t cls = (bytes + kGranularity - 1) / kGranularity;
  if (cls > kMaxClasses) {
    ::operator delete(p);
    return;
  }
  stats_.liveBytes -= cls * kGranularity;
  Slab* s = slabOf(p);
  const bool wasFull = !hasRoom(s);
  auto* block = static_cast<FreeBlock*>(p);
  block->next = s->free;
  s->free = block;
  if (--s->live == 0) {
    if (!wasFull) unlink(partial_[cls - 1], s);
    s->reused = 1;
    s->next = empty_;
    empty_ = s;
  } else if (wasFull) {
    link(partial_[cls - 1], s);
  }
}

void FrameArena::takeSlab(std::size_t cls) {
  if (empty_ == nullptr) {
    // Aligned to kSlabBytes so deallocate() can mask a frame's address.
    // Frames need only __STDCPP_DEFAULT_NEW_ALIGNMENT__, which kGranularity
    // is a multiple of, so 64-byte blocks after each header stay aligned.
    char* chunk = static_cast<char*>(
        ::operator new(kChunkBytes, std::align_val_t{kSlabBytes}));
    chunks_.push_back(chunk);
    stats_.slabBytes += kChunkBytes;
    for (char* at = chunk + kChunkBytes; at != chunk;) {
      at -= kSlabBytes;
      auto* fresh = reinterpret_cast<Slab*>(at);
      fresh->reused = 0;
      fresh->next = empty_;
      empty_ = fresh;
    }
  }
  Slab* s = empty_;
  empty_ = s->next;
  const std::size_t blockBytes = cls * kGranularity;
  s->free = nullptr;
  s->cursor = reinterpret_cast<char*>(s) + kGranularity;
  s->limit = s->cursor + (kSlabBytes - kGranularity) / blockBytes * blockBytes;
  s->live = 0;
  s->blockBytes = static_cast<std::uint32_t>(blockBytes);
  link(partial_[cls - 1], s);
}

void FrameArena::link(Slab*& head, Slab* s) {
  s->prev = nullptr;
  s->next = head;
  if (head != nullptr) head->prev = s;
  head = s;
}

void FrameArena::unlink(Slab*& head, Slab* s) {
  if (s->prev != nullptr) {
    s->prev->next = s->next;
  } else {
    head = s->next;
  }
  if (s->next != nullptr) s->next->prev = s->prev;
}

}  // namespace bgckpt::sim
