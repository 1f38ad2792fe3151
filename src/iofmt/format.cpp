#include "iofmt/format.hpp"

#include <array>
#include <cstring>
#include <stdexcept>

namespace bgckpt::iofmt {

namespace {

// Header field offsets within the 4 KiB master header.
constexpr std::size_t kOffMagic = 0;
constexpr std::size_t kOffVersion = 8;
constexpr std::size_t kOffEndianTag = 12;
constexpr std::size_t kOffStep = 16;
constexpr std::size_t kOffPart = 20;
constexpr std::size_t kOffRanks = 24;
constexpr std::size_t kOffFirstRank = 28;
constexpr std::size_t kOffNumFields = 32;
constexpr std::size_t kOffPartsInStep = 36;
constexpr std::size_t kOffFieldBytes = 40;
constexpr std::size_t kOffSimTime = 48;
constexpr std::size_t kOffIteration = 56;
constexpr std::size_t kOffAppName = 64;    // 64 bytes
constexpr std::size_t kOffHeaderCrc = 128;
constexpr std::size_t kOffTable = 256;     // field table entries follow
constexpr std::size_t kTableEntryBytes = kFieldNameBytes + 16;  // name+off+len
constexpr std::uint32_t kEndianTag = 0x01020304;

// Slicing-by-16 tables: kCrcTables[k][b] is the CRC register contribution
// of byte b followed by k zero bytes, so 16 input bytes fold into the
// register with 16 independent lookups instead of a 16-step serial chain.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 16>;

constexpr CrcTables makeCrcTables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int b = 0; b < 8; ++b)
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
  return t;
}

constexpr CrcTables kCrcTables = makeCrcTables();

/// Little-endian word load; compilers fold it into one load on LE hosts.
std::uint32_t loadLe32(const std::byte* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(std::span<const std::byte> data, std::uint32_t seed) {
  const auto& t = kCrcTables;
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  for (; n >= 16; p += 16, n -= 16) {
    const std::uint32_t w0 = loadLe32(p) ^ c;
    const std::uint32_t w1 = loadLe32(p + 4);
    const std::uint32_t w2 = loadLe32(p + 8);
    const std::uint32_t w3 = loadLe32(p + 12);
    c = t[15][w0 & 0xFF] ^ t[14][(w0 >> 8) & 0xFF] ^
        t[13][(w0 >> 16) & 0xFF] ^ t[12][w0 >> 24] ^
        t[11][w1 & 0xFF] ^ t[10][(w1 >> 8) & 0xFF] ^
        t[9][(w1 >> 16) & 0xFF] ^ t[8][w1 >> 24] ^
        t[7][w2 & 0xFF] ^ t[6][(w2 >> 8) & 0xFF] ^
        t[5][(w2 >> 16) & 0xFF] ^ t[4][w2 >> 24] ^
        t[3][w3 & 0xFF] ^ t[2][(w3 >> 8) & 0xFF] ^
        t[1][(w3 >> 16) & 0xFF] ^ t[0][w3 >> 24];
  }
  for (; n > 0; ++p, --n)
    c = t[0][(c ^ static_cast<std::uint32_t>(*p)) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void putU32(std::vector<std::byte>& out, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out[at + static_cast<std::size_t>(i)] =
        static_cast<std::byte>((v >> (8 * i)) & 0xFF);
}

void putU64(std::vector<std::byte>& out, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out[at + static_cast<std::size_t>(i)] =
        static_cast<std::byte>((v >> (8 * i)) & 0xFF);
}

void putF64(std::vector<std::byte>& out, std::size_t at, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  putU64(out, at, bits);
}

std::uint32_t getU32(std::span<const std::byte> in, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(in[at + static_cast<std::size_t>(i)])
         << (8 * i);
  return v;
}

std::uint64_t getU64(std::span<const std::byte> in, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(in[at + static_cast<std::size_t>(i)])
         << (8 * i);
  return v;
}

double getF64(std::span<const std::byte> in, std::size_t at) {
  const std::uint64_t bits = getU64(in, at);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::uint64_t FileSpec::sectionOffset(int field) const {
  return kMasterHeaderBytes +
         static_cast<std::uint64_t>(field) *
             (kSectionHeaderBytes + sectionDataBytes());
}

std::uint64_t FileSpec::blockOffset(int field, int rankInFile) const {
  return sectionOffset(field) + kSectionHeaderBytes +
         static_cast<std::uint64_t>(rankInFile) * fieldBytesPerRank;
}

std::uint64_t FileSpec::fileBytes() const {
  return kMasterHeaderBytes +
         numFields() * (kSectionHeaderBytes + sectionDataBytes());
}

std::vector<std::byte> encodeMasterHeader(const FileSpec& spec) {
  if (spec.fieldNames.empty() || spec.fieldNames.size() > kMaxFields)
    throw std::invalid_argument("checkpoint needs 1..64 fields");
  std::vector<std::byte> out(kMasterHeaderBytes, std::byte{0});
  putU64(out, kOffMagic, kMagic);
  putU32(out, kOffVersion, kVersion);
  putU32(out, kOffEndianTag, kEndianTag);
  putU32(out, kOffStep, spec.step);
  putU32(out, kOffPart, spec.part);
  putU32(out, kOffRanks, spec.ranksInFile);
  putU32(out, kOffFirstRank, spec.firstGlobalRank);
  putU32(out, kOffNumFields, spec.numFields());
  putU32(out, kOffPartsInStep, spec.partsInStep);
  putU64(out, kOffFieldBytes, spec.fieldBytesPerRank);
  putF64(out, kOffSimTime, spec.simTime);
  putU64(out, kOffIteration, spec.iteration);
  for (std::size_t i = 0; i < spec.application.size() && i < 63; ++i)
    out[kOffAppName + i] = static_cast<std::byte>(spec.application[i]);
  for (std::size_t f = 0; f < spec.fieldNames.size(); ++f) {
    const std::size_t base = kOffTable + f * kTableEntryBytes;
    const auto& name = spec.fieldNames[f];
    for (std::size_t i = 0; i < name.size() && i < kFieldNameBytes - 1; ++i)
      out[base + i] = static_cast<std::byte>(name[i]);
    putU64(out, base + kFieldNameBytes,
           spec.sectionOffset(static_cast<int>(f)));
    putU64(out, base + kFieldNameBytes + 8, spec.sectionDataBytes());
  }
  // CRC over everything except the CRC field itself.
  std::vector<std::byte> scratch = out;
  putU32(scratch, kOffHeaderCrc, 0);
  putU32(out, kOffHeaderCrc, crc32(scratch));
  return out;
}

FileSpec decodeMasterHeader(std::span<const std::byte> bytes) {
  if (bytes.size() < kMasterHeaderBytes)
    throw std::runtime_error("checkpoint header truncated");
  if (getU64(bytes, kOffMagic) != kMagic)
    throw std::runtime_error("not a bgckpt checkpoint (bad magic)");
  if (getU32(bytes, kOffVersion) != kVersion)
    throw std::runtime_error("unsupported checkpoint version");
  if (getU32(bytes, kOffEndianTag) != kEndianTag)
    throw std::runtime_error("corrupt endianness tag");
  std::vector<std::byte> scratch(bytes.begin(),
                                 bytes.begin() + kMasterHeaderBytes);
  const std::uint32_t storedCrc = getU32(bytes, kOffHeaderCrc);
  putU32(scratch, kOffHeaderCrc, 0);
  if (crc32(scratch) != storedCrc)
    throw std::runtime_error("checkpoint header CRC mismatch");

  FileSpec spec;
  spec.step = getU32(bytes, kOffStep);
  spec.part = getU32(bytes, kOffPart);
  spec.ranksInFile = getU32(bytes, kOffRanks);
  spec.firstGlobalRank = getU32(bytes, kOffFirstRank);
  spec.partsInStep = getU32(bytes, kOffPartsInStep);
  const std::uint32_t numFields = getU32(bytes, kOffNumFields);
  if (numFields == 0 || numFields > kMaxFields)
    throw std::runtime_error("corrupt field count");
  spec.fieldBytesPerRank = getU64(bytes, kOffFieldBytes);
  spec.simTime = getF64(bytes, kOffSimTime);
  spec.iteration = getU64(bytes, kOffIteration);
  {
    std::string app;
    for (std::size_t i = kOffAppName; i < kOffAppName + 64; ++i) {
      if (bytes[i] == std::byte{0}) break;
      app.push_back(static_cast<char>(bytes[i]));
    }
    spec.application = app;
  }
  for (std::uint32_t f = 0; f < numFields; ++f) {
    const std::size_t base = kOffTable + f * kTableEntryBytes;
    std::string name;
    for (std::size_t i = 0; i < kFieldNameBytes; ++i) {
      if (bytes[base + i] == std::byte{0}) break;
      name.push_back(static_cast<char>(bytes[base + i]));
    }
    spec.fieldNames.push_back(name);
    // Validate the stored offsets against the canonical layout.
    if (getU64(bytes, base + kFieldNameBytes) !=
        spec.sectionOffset(static_cast<int>(f)))
      throw std::runtime_error("corrupt offset table");
  }
  return spec;
}

std::vector<std::byte> encodeSectionHeader(const FileSpec& spec, int field,
                                           std::uint32_t crc) {
  std::vector<std::byte> out(kSectionHeaderBytes, std::byte{0});
  const auto& name = spec.fieldNames.at(static_cast<std::size_t>(field));
  for (std::size_t i = 0; i < name.size() && i < kFieldNameBytes - 1; ++i)
    out[i] = static_cast<std::byte>(name[i]);
  putU64(out, kFieldNameBytes, spec.sectionDataBytes());
  putU32(out, kFieldNameBytes + 8, crc);
  // The section header protects itself too: CRC over its first 36 bytes.
  putU32(out, kFieldNameBytes + 12,
         crc32(std::span<const std::byte>(out.data(), kFieldNameBytes + 12)));
  return out;
}

SectionInfo decodeSectionHeader(std::span<const std::byte> bytes) {
  if (bytes.size() < kSectionHeaderBytes)
    throw std::runtime_error("section header truncated");
  const std::uint32_t stored = getU32(bytes, kFieldNameBytes + 12);
  if (crc32(bytes.subspan(0, kFieldNameBytes + 12)) != stored)
    throw std::runtime_error("section header CRC mismatch");
  SectionInfo info;
  for (std::size_t i = 0; i < kFieldNameBytes; ++i) {
    if (bytes[i] == std::byte{0}) break;
    info.name.push_back(static_cast<char>(bytes[i]));
  }
  info.dataBytes = getU64(bytes, kFieldNameBytes);
  info.crc = getU32(bytes, kFieldNameBytes + 8);
  return info;
}

}  // namespace bgckpt::iofmt
