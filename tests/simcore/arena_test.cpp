#include "simcore/arena.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <vector>

namespace bgckpt::sim {
namespace {

std::uintptr_t slabBase(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) & ~(FrameArena::kSlabBytes - 1);
}

TEST(FrameArena, EmptySlabsServeAnotherSizeClass) {
#if BGCKPT_ARENA_PASSTHROUGH
  // Under ASan the arena forwards every frame to plain operator new, so
  // there are no slabs to observe.
  GTEST_SKIP() << "arena passthrough active (sanitizer build): no slabs";
#endif
  FrameArena& arena = FrameArena::instance();
  // Four slabs' worth of 128-byte frames spans five slabs (each slab keeps
  // a header), and all of them empty again.
  constexpr std::size_t kBytes = 4 * FrameArena::kSlabBytes;
  std::vector<void*> frames;
  for (std::size_t i = 0; i < kBytes / 128; ++i)
    frames.push_back(arena.allocate(128));
  for (void* p : frames) arena.deallocate(p, 128);
  const std::size_t held = arena.stats().slabBytes;

  // The same bytes as 768-byte frames fit in the emptied slabs.
  frames.clear();
  for (std::size_t i = 0; i < kBytes / 768; ++i)
    frames.push_back(arena.allocate(768));
  EXPECT_EQ(arena.stats().slabBytes, held);
  for (void* p : frames) arena.deallocate(p, 768);
}

TEST(FrameArena, FreedBlocksAreReusedBeforeAnotherSlab) {
#if BGCKPT_ARENA_PASSTHROUGH
  GTEST_SKIP() << "arena passthrough active (sanitizer build): no slabs";
#endif
  FrameArena& arena = FrameArena::instance();
  constexpr std::size_t kFrames = 3 * FrameArena::kSlabBytes / 256;
  std::vector<void*> frames(kFrames);
  std::set<std::uintptr_t> slabs;
  for (void*& p : frames) {
    p = arena.allocate(256);
    slabs.insert(slabBase(p));
  }
  const std::size_t held = arena.stats().slabBytes;

  for (std::size_t i = 0; i < kFrames; i += 2) arena.deallocate(frames[i], 256);
  for (std::size_t i = 0; i < kFrames; i += 2) {
    frames[i] = arena.allocate(256);
    EXPECT_EQ(slabs.count(slabBase(frames[i])), 1u) << "frame " << i;
  }
  EXPECT_EQ(arena.stats().slabBytes, held);
  for (void* p : frames) arena.deallocate(p, 256);
}

TEST(FrameArena, FramesAbove4KiBBypassTheSlabs) {
#if BGCKPT_ARENA_PASSTHROUGH
  GTEST_SKIP() << "arena passthrough active (sanitizer build): no slabs";
#endif
  FrameArena& arena = FrameArena::instance();
  const FrameArena::Stats before = arena.stats();

  void* largest = arena.allocate(4096);  // the largest pooled class
  EXPECT_EQ(arena.stats().oversized, before.oversized);
  arena.deallocate(largest, 4096);

  void* big = arena.allocate(4097);
  EXPECT_EQ(arena.stats().oversized, before.oversized + 1);
  EXPECT_EQ(arena.stats().liveBytes, before.liveBytes);
  std::memset(big, 0xab, 4097);
  arena.deallocate(big, 4097);
  EXPECT_EQ(arena.stats().liveBytes, before.liveBytes);
}

}  // namespace
}  // namespace bgckpt::sim
