#include "iofmt/format.hpp"

#include <gtest/gtest.h>

namespace bgckpt::iofmt {
namespace {

FileSpec sampleSpec() {
  FileSpec spec;
  spec.step = 7;
  spec.part = 3;
  spec.ranksInFile = 64;
  spec.firstGlobalRank = 192;
  spec.fieldBytesPerRank = 4096;
  spec.simTime = 1.25;
  spec.iteration = 900;
  spec.application = "nekcem-mini";
  spec.fieldNames = {"Ex", "Ey", "Ez", "Hx", "Hy", "Hz"};
  return spec;
}

TEST(Format, LittleEndianPrimitivesRoundTrip) {
  std::vector<std::byte> buf(32, std::byte{0});
  putU32(buf, 0, 0xDEADBEEFu);
  putU64(buf, 8, 0x0123456789ABCDEFull);
  putF64(buf, 16, -1234.5678);
  EXPECT_EQ(getU32(buf, 0), 0xDEADBEEFu);
  EXPECT_EQ(getU64(buf, 8), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(getF64(buf, 16), -1234.5678);
  // Byte order is little-endian on disk regardless of host.
  EXPECT_EQ(buf[0], std::byte{0xEF});
  EXPECT_EQ(buf[3], std::byte{0xDE});
}

TEST(Format, Crc32KnownVector) {
  // CRC32("123456789") = 0xCBF43926 (IEEE).
  const char* s = "123456789";
  std::vector<std::byte> data(9);
  for (int i = 0; i < 9; ++i) data[static_cast<size_t>(i)] =
      static_cast<std::byte>(s[i]);
  EXPECT_EQ(crc32(data), 0xCBF43926u);
}

// Bit-at-a-time CRC-32, straight from the polynomial: the reference the
// sliced kernel must match exactly.
std::uint32_t referenceCrc32(std::span<const std::byte> data,
                             std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::byte b : data) {
    c ^= static_cast<std::uint32_t>(b);
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Format, Crc32MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  std::vector<std::byte> buf(16 + 257);
  std::uint32_t x = 12345;
  for (auto& b : buf) {
    x = x * 1103515245u + 12345u;
    b = static_cast<std::byte>(x >> 24);
  }
  for (std::size_t start = 0; start < 16; ++start)
    for (std::size_t len = 0; len <= 257; ++len) {
      const std::span<const std::byte> s(buf.data() + start, len);
      ASSERT_EQ(crc32(s), referenceCrc32(s))
          << "start " << start << " length " << len;
      ASSERT_EQ(crc32(s, 0xDEADBEEFu), referenceCrc32(s, 0xDEADBEEFu))
          << "seeded, start " << start << " length " << len;
    }
}

TEST(Format, Crc32ChainsAcrossSplits) {
  std::vector<std::byte> buf(300);
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<std::byte>(i * 131 + 7);
  const std::span<const std::byte> all(buf);
  const std::uint32_t whole = crc32(all);
  for (std::size_t cut = 0; cut <= all.size(); ++cut)
    ASSERT_EQ(crc32(all.subspan(cut), crc32(all.first(cut))), whole)
        << "cut at " << cut;
}

TEST(Format, MasterHeaderRoundTrip) {
  const FileSpec spec = sampleSpec();
  const auto bytes = encodeMasterHeader(spec);
  ASSERT_EQ(bytes.size(), kMasterHeaderBytes);
  const FileSpec back = decodeMasterHeader(bytes);
  EXPECT_EQ(back.step, spec.step);
  EXPECT_EQ(back.part, spec.part);
  EXPECT_EQ(back.ranksInFile, spec.ranksInFile);
  EXPECT_EQ(back.firstGlobalRank, spec.firstGlobalRank);
  EXPECT_EQ(back.fieldBytesPerRank, spec.fieldBytesPerRank);
  EXPECT_DOUBLE_EQ(back.simTime, spec.simTime);
  EXPECT_EQ(back.iteration, spec.iteration);
  EXPECT_EQ(back.application, spec.application);
  EXPECT_EQ(back.fieldNames, spec.fieldNames);
}

TEST(Format, CorruptMagicRejected) {
  auto bytes = encodeMasterHeader(sampleSpec());
  bytes[0] = std::byte{0x00};
  EXPECT_THROW(decodeMasterHeader(bytes), std::runtime_error);
}

TEST(Format, BitFlipDetectedByHeaderCrc) {
  auto bytes = encodeMasterHeader(sampleSpec());
  bytes[300] ^= std::byte{0x01};  // flip a bit inside the field table
  EXPECT_THROW(decodeMasterHeader(bytes), std::runtime_error);
}

TEST(Format, TruncatedHeaderRejected) {
  auto bytes = encodeMasterHeader(sampleSpec());
  bytes.resize(100);
  EXPECT_THROW(decodeMasterHeader(bytes), std::runtime_error);
}

TEST(Format, TooManyFieldsRejected) {
  FileSpec spec = sampleSpec();
  spec.fieldNames.assign(kMaxFields + 1, "f");
  EXPECT_THROW(encodeMasterHeader(spec), std::invalid_argument);
  spec.fieldNames.clear();
  EXPECT_THROW(encodeMasterHeader(spec), std::invalid_argument);
}

TEST(Format, OffsetsAreFieldMajorAndContiguous) {
  const FileSpec spec = sampleSpec();
  EXPECT_EQ(spec.sectionOffset(0), kMasterHeaderBytes);
  EXPECT_EQ(spec.blockOffset(0, 0), kMasterHeaderBytes + kSectionHeaderBytes);
  EXPECT_EQ(spec.blockOffset(0, 1),
            spec.blockOffset(0, 0) + spec.fieldBytesPerRank);
  EXPECT_EQ(spec.sectionOffset(1),
            spec.blockOffset(0, 63) + spec.fieldBytesPerRank);
  EXPECT_EQ(spec.fileBytes(),
            kMasterHeaderBytes +
                6 * (kSectionHeaderBytes + 64 * spec.fieldBytesPerRank));
}

TEST(Format, SectionHeaderRoundTrip) {
  const FileSpec spec = sampleSpec();
  const auto bytes = encodeSectionHeader(spec, 2, 0xAABBCCDDu);
  ASSERT_EQ(bytes.size(), kSectionHeaderBytes);
  const SectionInfo info = decodeSectionHeader(bytes);
  EXPECT_EQ(info.name, "Ez");
  EXPECT_EQ(info.dataBytes, 64u * 4096u);
  EXPECT_EQ(info.crc, 0xAABBCCDDu);
}

}  // namespace
}  // namespace bgckpt::iofmt
