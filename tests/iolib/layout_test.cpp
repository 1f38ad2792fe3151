#include "iolib/layout.hpp"

#include <gtest/gtest.h>

#include <set>

namespace bgckpt::iolib {
namespace {

CheckpointSpec spec(sim::Bytes fieldBytes = 1000, int fields = 3,
                    sim::Bytes header = 100) {
  CheckpointSpec s;
  s.fieldBytesPerRank = fieldBytes;
  s.numFields = fields;
  s.headerBytes = header;
  return s;
}

TEST(GroupFileLayout, OffsetsAreFieldMajor) {
  auto sp = spec();
  GroupFileLayout layout(sp, 4);
  EXPECT_EQ(layout.fieldOffset(0, 0), 100u);
  EXPECT_EQ(layout.fieldOffset(0, 1), 1100u);
  EXPECT_EQ(layout.fieldOffset(0, 3), 3100u);
  // Next field starts after all ranks of the previous one.
  EXPECT_EQ(layout.fieldOffset(1, 0), 4100u);
  EXPECT_EQ(layout.fieldSectionOffset(2), 8100u);
}

TEST(GroupFileLayout, ExtentsTileTheFileExactly) {
  auto sp = spec(768, 5, 64);
  GroupFileLayout layout(sp, 7);
  std::set<std::pair<std::uint64_t, std::uint64_t>> extents;
  extents.emplace(0, sp.headerBytes);  // header
  for (int f = 0; f < sp.numFields; ++f)
    for (int r = 0; r < 7; ++r)
      extents.emplace(layout.fieldOffset(f, r),
                      layout.fieldOffset(f, r) + sp.fieldBytesPerRank);
  // Adjacent extents must be contiguous and end at fileBytes().
  std::uint64_t cursor = 0;
  for (const auto& [lo, hi] : extents) {
    EXPECT_EQ(lo, cursor);
    cursor = hi;
  }
  EXPECT_EQ(cursor, layout.fileBytes());
}

TEST(GroupFileLayout, FileBytesFormula) {
  auto sp = spec(1000, 3, 100);
  GroupFileLayout layout(sp, 10);
  EXPECT_EQ(layout.fileBytes(), 100u + 3u * 10u * 1000u);
  EXPECT_EQ(layout.fieldSectionBytes(), 10u * 1000u);
}

TEST(PatternByte, DeterministicAndDiscriminating) {
  EXPECT_EQ(patternByte(1, 2, 3), patternByte(1, 2, 3));
  int distinct = 0;
  for (int i = 0; i < 100; ++i)
    if (patternByte(1, 0, static_cast<std::uint64_t>(i)) !=
        patternByte(2, 0, static_cast<std::uint64_t>(i)))
      ++distinct;
  EXPECT_GT(distinct, 90);
}

TEST(MakeRankPayload, SizeAndFieldSlices) {
  auto sp = spec(256, 4, 0);
  auto payload = makeRankPayload(sp, 9);
  ASSERT_EQ(payload.size(), 1024u);
  for (int f = 0; f < 4; ++f)
    for (std::uint64_t i = 0; i < 256; i += 13)
      EXPECT_EQ(payload[static_cast<size_t>(f) * 256 + i],
                patternByte(9, f, i));
}

TEST(MakeHeaderPayload, ContainsStepAndPart) {
  auto sp = spec();
  sp.step = 5;
  auto hdr = makeHeaderPayload(sp, 2);
  ASSERT_EQ(hdr.size(), sp.headerBytes);
  std::string text(reinterpret_cast<const char*>(hdr.data()),
                   std::min<size_t>(hdr.size(), 80));
  EXPECT_NE(text.find("step 5"), std::string::npos);
  EXPECT_NE(text.find("part 2"), std::string::npos);
}

TEST(CheckpointSpec, NekcemWeakScalingSizes) {
  auto sp = CheckpointSpec::nekcemWeakScaling(16384);
  // 2.4 MB per rank, ~39 GB at 16K ranks.
  EXPECT_EQ(sp.bytesPerRank(), 2'400'000u);
  const double total = 16384.0 * static_cast<double>(sp.bytesPerRank());
  EXPECT_NEAR(total, 39e9, 1e9);
  EXPECT_NEAR(65536.0 * static_cast<double>(sp.bytesPerRank()), 157e9, 2e9);
}

}  // namespace
}  // namespace bgckpt::iolib
