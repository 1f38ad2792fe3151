// The on-disk checkpoint file format (real files).
//
// A vtk-legacy-inspired, self-describing container matching Section III-B:
// every file has a fixed-size master header (magic, version, application
// name, step/part identity, field list, offset table) followed by
// field-major data sections, each with its own section header (field name,
// size, checksum). Files written on any platform read back on any other:
// all integers are little-endian on disk.
//
//   +--------------------+  offset 0
//   | master header      |  4 KiB, includes the offset table
//   +--------------------+
//   | section hdr field0 |  64 B
//   | rank 0 block       |
//   | rank 1 block       |
//   | ...                |
//   +--------------------+
//   | section hdr field1 |
//   | ...                |
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace bgckpt::iofmt {

inline constexpr std::uint64_t kMagic = 0x4e434b50434b5054ull;  // "NCKPCKPT"
inline constexpr std::uint32_t kVersion = 1;
inline constexpr std::uint64_t kMasterHeaderBytes = 4096;
inline constexpr std::uint64_t kSectionHeaderBytes = 64;
inline constexpr std::size_t kMaxFields = 64;
inline constexpr std::size_t kFieldNameBytes = 24;

/// Identity and geometry of one checkpoint file.
struct FileSpec {
  std::uint32_t step = 0;            ///< checkpoint step index
  std::uint32_t part = 0;            ///< file index within the step
  std::uint32_t ranksInFile = 1;     ///< ranks whose state this file holds
  std::uint32_t firstGlobalRank = 0; ///< global rank of local rank 0
  std::uint64_t fieldBytesPerRank = 0;
  double simTime = 0.0;
  std::uint64_t iteration = 0;
  std::string application = "bgckpt";
  std::vector<std::string> fieldNames;  // one per field

  std::uint32_t numFields() const {
    return static_cast<std::uint32_t>(fieldNames.size());
  }
  /// Offset of the section header of `field`.
  std::uint64_t sectionOffset(int field) const;
  /// Offset of `rankInFile`'s block within `field`'s section.
  std::uint64_t blockOffset(int field, int rankInFile) const;
  std::uint64_t sectionDataBytes() const {
    return fieldBytesPerRank * ranksInFile;
  }
  std::uint64_t fileBytes() const;
};

/// CRC32 (IEEE 802.3, reflected) used by section headers. Chains:
/// crc32(b, crc32(a)) == crc32(a‖b), so data may be checksummed in chunks.
std::uint32_t crc32(std::span<const std::byte> data,
                    std::uint32_t seed = 0);

/// Serialise the master header (exactly kMasterHeaderBytes).
std::vector<std::byte> encodeMasterHeader(const FileSpec& spec);

/// Parse a master header; throws std::runtime_error on corruption.
FileSpec decodeMasterHeader(std::span<const std::byte> bytes);

/// Serialise a section header for `field` whose payload has `crc`.
std::vector<std::byte> encodeSectionHeader(const FileSpec& spec, int field,
                                           std::uint32_t crc);

struct SectionInfo {
  std::string name;
  std::uint64_t dataBytes = 0;
  std::uint32_t crc = 0;
};
SectionInfo decodeSectionHeader(std::span<const std::byte> bytes);

// Little-endian primitives (byte-order independent).
void putU32(std::vector<std::byte>& out, std::size_t at, std::uint32_t v);
void putU64(std::vector<std::byte>& out, std::size_t at, std::uint64_t v);
void putF64(std::vector<std::byte>& out, std::size_t at, double v);
std::uint32_t getU32(std::span<const std::byte> in, std::size_t at);
std::uint64_t getU64(std::span<const std::byte> in, std::size_t at);
double getF64(std::span<const std::byte> in, std::size_t at);

}  // namespace bgckpt::iofmt
