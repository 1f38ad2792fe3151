// Corruption sweep: flip bytes at representative positions throughout a
// checkpoint file; every corruption must be caught — header damage at
// decode time, data damage at verify time. Silent acceptance anywhere is a
// bug in a checkpointing format.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>

#include "iofmt/file_io.hpp"

namespace bgckpt::iofmt {
namespace {

class CorruptionSweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("bgckpt_corrupt_" + std::to_string(::getpid()) + "_" +
              std::to_string(GetParam())))
                .string();
    FileSpec spec;
    spec.ranksInFile = 2;
    spec.fieldBytesPerRank = 4096;
    spec.fieldNames = {"Ex", "Hy"};
    CheckpointWriter writer(path_, spec);
    std::vector<std::byte> block(4096);
    for (std::size_t i = 0; i < block.size(); ++i)
      block[i] = static_cast<std::byte>(i * 7);
    for (int f = 0; f < 2; ++f)
      for (int r = 0; r < 2; ++r) writer.writeBlock(f, r, block);
    writer.close();
  }
  void TearDown() override { std::filesystem::remove(path_); }

  void flipByteAt(std::uint64_t offset) {
    int fd = ::open(path_.c_str(), O_RDWR);
    ASSERT_GE(fd, 0);
    char b = 0;
    ASSERT_EQ(::pread(fd, &b, 1, static_cast<off_t>(offset)), 1);
    b = static_cast<char>(b ^ 0x40);
    ASSERT_EQ(::pwrite(fd, &b, 1, static_cast<off_t>(offset)), 1);
    ::close(fd);
  }

  std::string path_;
};

TEST_P(CorruptionSweep, EveryCorruptionIsDetected) {
  flipByteAt(GetParam());
  bool detected = false;
  try {
    CheckpointReader reader(path_);       // header CRC may fire here ...
    detected = !reader.verify();          // ... or data CRC here
  } catch (const std::runtime_error&) {
    detected = true;
  }
  EXPECT_TRUE(detected) << "silent corruption at offset " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Offsets, CorruptionSweep,
    ::testing::Values(
        0ull,       // magic
        9ull,       // version
        17ull,      // step field
        40ull,      // field-bytes field
        70ull,      // application name (covered by header CRC)
        300ull,     // offset table entry
        kMasterHeaderBytes + 4,                          // section 0 name
        kMasterHeaderBytes + kSectionHeaderBytes + 100,  // field 0 rank 0
        kMasterHeaderBytes + kSectionHeaderBytes + 4096 + 1,  // f0 rank 1
        kMasterHeaderBytes + kSectionHeaderBytes + 2 * 4096 +
            kSectionHeaderBytes + 7));                   // field 1 data

TEST(CorruptionMisc, SwappedBlocksDetected) {
  // Writing rank 0's data into rank 1's slot (and vice versa) changes the
  // per-block CRC sequence, so the section checksum catches transposition,
  // not just bit rot.
  const auto path = (std::filesystem::temp_directory_path() /
                     ("bgckpt_swap_" + std::to_string(::getpid())))
                        .string();
  FileSpec spec;
  spec.ranksInFile = 2;
  spec.fieldBytesPerRank = 512;
  spec.fieldNames = {"Ex"};
  std::vector<std::byte> a(512, std::byte{0xAA});
  std::vector<std::byte> b(512, std::byte{0xBB});
  {
    CheckpointWriter writer(path, spec);
    writer.writeBlock(0, 0, a);
    writer.writeBlock(0, 1, b);
    writer.close();
  }
  {
    // Swap the raw block contents on disk.
    int fd = ::open(path.c_str(), O_RDWR);
    ASSERT_GE(fd, 0);
    const auto off0 = static_cast<off_t>(spec.blockOffset(0, 0));
    const auto off1 = static_cast<off_t>(spec.blockOffset(0, 1));
    ASSERT_EQ(::pwrite(fd, b.data(), 512, off0), 512);
    ASSERT_EQ(::pwrite(fd, a.data(), 512, off1), 512);
    ::close(fd);
  }
  CheckpointReader reader(path);
  EXPECT_FALSE(reader.verify());
  std::filesystem::remove(path);
}

// Two sections holding the same bytes, so their headers carry the same
// data CRC: a header forged from valid parts stays self-consistent, and
// only the checks against the master header's field table can catch it.
class SectionHeaderForgery : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("bgckpt_forgery_" + std::to_string(::getpid())))
                .string();
    spec_.ranksInFile = 2;
    spec_.fieldBytesPerRank = 512;
    spec_.fieldNames = {"Ex", "Hy"};
    CheckpointWriter writer(path_, spec_);
    const std::vector<std::byte> block(512, std::byte{0x5C});
    for (int f = 0; f < 2; ++f)
      for (int r = 0; r < 2; ++r) writer.writeBlock(f, r, block);
    writer.close();
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::vector<std::byte> sectionHeader(int field) const {
    std::vector<std::byte> out(kSectionHeaderBytes);
    const int fd = ::open(path_.c_str(), O_RDONLY);
    EXPECT_EQ(::pread(fd, out.data(), out.size(),
                      static_cast<off_t>(spec_.sectionOffset(field))),
              static_cast<ssize_t>(out.size()));
    ::close(fd);
    return out;
  }
  void putSectionHeader(int field, const std::vector<std::byte>& bytes) {
    const int fd = ::open(path_.c_str(), O_WRONLY);
    EXPECT_EQ(::pwrite(fd, bytes.data(), bytes.size(),
                       static_cast<off_t>(spec_.sectionOffset(field))),
              static_cast<ssize_t>(bytes.size()));
    ::close(fd);
  }

  std::string path_;
  FileSpec spec_;
};

TEST_F(SectionHeaderForgery, SwappedSectionHeadersDetected) {
  const auto h0 = sectionHeader(0);
  const auto h1 = sectionHeader(1);
  putSectionHeader(0, h1);
  putSectionHeader(1, h0);
  CheckpointReader reader(path_);
  EXPECT_EQ(reader.sectionInfo(0).name, "Hy");  // still decodes cleanly
  EXPECT_FALSE(reader.verify());
}

TEST_F(SectionHeaderForgery, ResizedSectionHeaderDetected) {
  // Right name, right data CRC, wrong size.
  FileSpec resized = spec_;
  resized.fieldBytesPerRank = 256;
  const auto crc = decodeSectionHeader(sectionHeader(1)).crc;
  putSectionHeader(1, encodeSectionHeader(resized, 1, crc));
  CheckpointReader reader(path_);
  EXPECT_EQ(reader.sectionInfo(1).dataBytes, 2u * 256u);
  EXPECT_FALSE(reader.verify());
}

TEST(CorruptionMisc, ConcurrentVerifyCatchesEachSectionsDamage) {
  // Ten sections, so verify engages more than one worker on any machine
  // with two or more hardware threads. A flipped byte in any section's
  // data or header must come back false: not a throw, and not an abort
  // from an exception escaping a worker thread.
  const auto path = (std::filesystem::temp_directory_path() /
                     ("bgckpt_concurrent_" + std::to_string(::getpid())))
                        .string();
  FileSpec spec;
  spec.ranksInFile = 3;
  spec.fieldBytesPerRank = 3000;
  for (int f = 0; f < 10; ++f)
    spec.fieldNames.push_back("f" + std::to_string(f));
  {
    CheckpointWriter writer(path, spec);
    std::vector<std::byte> block(spec.fieldBytesPerRank);
    for (int f = 0; f < 10; ++f)
      for (int r = 0; r < 3; ++r) {
        for (std::size_t i = 0; i < block.size(); ++i)
          block[i] = static_cast<std::byte>(i * 13 + f * 7 + r);
        writer.writeBlock(f, r, block);
      }
    writer.close();
  }
  const CheckpointReader reader(path);
  EXPECT_TRUE(reader.verify());
  const int fd = ::open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  for (int f = 0; f < 10; ++f)
    for (const std::uint64_t offset :
         {spec.blockOffset(f, f % 3) + 1234, spec.sectionOffset(f) + 1}) {
      const auto at = static_cast<off_t>(offset);
      char b = 0;
      ASSERT_EQ(::pread(fd, &b, 1, at), 1);
      const char flipped = static_cast<char>(b ^ 0x10);
      ASSERT_EQ(::pwrite(fd, &flipped, 1, at), 1);
      bool single = true, both = true;
      EXPECT_NO_THROW(single = reader.verify());
      const std::vector<std::string> twice{path, path};
      EXPECT_NO_THROW(both = verifyFiles(twice));
      EXPECT_FALSE(single) << "section " << f << " offset " << offset;
      EXPECT_FALSE(both) << "section " << f << " offset " << offset;
      ASSERT_EQ(::pwrite(fd, &b, 1, at), 1);
    }
  ::close(fd);
  EXPECT_TRUE(reader.verify());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace bgckpt::iofmt
