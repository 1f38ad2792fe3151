#include "iofmt/file_io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <vector>

namespace bgckpt::iofmt {

namespace {

void pwriteAll(int fd, std::span<const std::byte> data, std::uint64_t offset) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::pwrite(fd, data.data() + done, data.size() - done,
                               static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("pwrite failed: ") +
                               std::strerror(errno));
    }
    done += static_cast<std::size_t>(n);
  }
}

/// Fills `out` from `offset`. False on a read error (errno set) or at EOF
/// (errno 0), so a truncated file is an answer rather than an exception.
bool preadExact(int fd, std::span<std::byte> out, std::uint64_t offset) {
  std::size_t done = 0;
  while (done < out.size()) {
    const ssize_t n = ::pread(fd, out.data() + done, out.size() - done,
                              static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return false;
    if (n == 0) {
      errno = 0;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

std::vector<std::byte> preadAll(int fd, std::uint64_t bytes,
                                std::uint64_t offset) {
  std::vector<std::byte> out(bytes);
  if (!preadExact(fd, out, offset))
    throw std::runtime_error(errno != 0 ? std::string("pread failed: ") +
                                              std::strerror(errno)
                                        : "unexpected EOF in checkpoint file");
  return out;
}

/// Section CRC: crc32 over the little-endian per-block CRCs in rank order.
std::uint32_t combineBlockCrcs(const std::vector<std::uint32_t>& crcs) {
  std::vector<std::byte> buf(crcs.size() * 4);
  for (std::size_t i = 0; i < crcs.size(); ++i)
    putU32(buf, i * 4, crcs[i]);
  return crc32(buf);
}

/// A verify worker's read buffer; blocks stream through it in chunks.
constexpr std::uint64_t kVerifyChunkBytes = 256 * 1024;

/// An open checkpoint file and its decoded master header.
struct OpenFile {
  int fd = -1;
  const FileSpec* spec = nullptr;
};

/// One (file, section) pair of a verification.
struct SectionJob {
  OpenFile file;
  int field = 0;
};

/// Re-derives one section's CRC, streaming its blocks through `buf`, and
/// checks its header against the master header's field table.
bool verifySection(const SectionJob& job, std::span<std::byte> buf) {
  const FileSpec& spec = *job.file.spec;
  std::array<std::byte, kSectionHeaderBytes> raw{};
  if (!preadExact(job.file.fd, raw, spec.sectionOffset(job.field)))
    return false;
  const SectionInfo info = decodeSectionHeader(raw);
  if (info.name != spec.fieldNames[static_cast<std::size_t>(job.field)] ||
      info.dataBytes != spec.sectionDataBytes())
    return false;
  std::vector<std::uint32_t> crcs(spec.ranksInFile, 0);
  for (std::uint32_t r = 0; r < spec.ranksInFile; ++r) {
    std::uint64_t at = spec.blockOffset(job.field, static_cast<int>(r));
    for (std::uint64_t left = spec.fieldBytesPerRank; left > 0;) {
      const auto chunk = buf.first(
          static_cast<std::size_t>(std::min<std::uint64_t>(left, buf.size())));
      if (!preadExact(job.file.fd, chunk, at)) return false;
      crcs[r] = crc32(chunk, crcs[r]);
      at += chunk.size();
      left -= chunk.size();
    }
  }
  return combineBlockCrcs(crcs) == info.crc;
}

/// The verify engine: queues every section of every file and drains the
/// queue on min(hardware threads, sections) workers, the caller being one.
/// Any failure, including a throw inside a worker, reads as false.
bool verifySections(std::span<const OpenFile> files) {
  std::vector<SectionJob> jobs;
  std::uint64_t chunkBytes = 0;
  for (const auto& file : files) {
    for (std::uint32_t f = 0; f < file.spec->numFields(); ++f)
      jobs.push_back({file, static_cast<int>(f)});
    chunkBytes = std::max(chunkBytes, std::min(kVerifyChunkBytes,
                                               file.spec->fieldBytesPerRank));
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> ok{true};
  auto drain = [&] {
    try {
      std::vector<std::byte> buf(static_cast<std::size_t>(chunkBytes));
      for (std::size_t i = next++; i < jobs.size() && ok; i = next++)
        if (!verifySection(jobs[i], buf)) ok = false;
    } catch (...) {
      ok = false;  // e.g. a section header failing its own CRC
    }
  };
  const std::size_t workers = std::min<std::size_t>(
      std::max(1u, std::thread::hardware_concurrency()), jobs.size());
  {
    std::vector<std::jthread> pool;
    for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(drain);
    drain();
  }
  return ok;
}

}  // namespace

struct CheckpointWriter::Impl {
  int fd = -1;
  // blockCrcs[field][rank]; written flags mirror it.
  std::vector<std::vector<std::uint32_t>> blockCrcs;
  std::vector<std::vector<char>> written;
};

CheckpointWriter::CheckpointWriter(const std::string& path, FileSpec spec)
    : impl_(std::make_unique<Impl>()), spec_(std::move(spec)) {
  const auto dir = std::filesystem::path(path).parent_path();
  if (!dir.empty()) std::filesystem::create_directories(dir);
  impl_->fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_RDWR, 0644);
  if (impl_->fd < 0)
    throw std::runtime_error("cannot create checkpoint file " + path + ": " +
                             std::strerror(errno));
  const auto header = encodeMasterHeader(spec_);
  pwriteAll(impl_->fd, header, 0);
  impl_->blockCrcs.assign(
      spec_.numFields(),
      std::vector<std::uint32_t>(spec_.ranksInFile, 0));
  impl_->written.assign(spec_.numFields(),
                        std::vector<char>(spec_.ranksInFile, 0));
}

CheckpointWriter::~CheckpointWriter() {
  if (impl_ && impl_->fd >= 0) ::close(impl_->fd);
}

void CheckpointWriter::writeBlock(int field, int rankInFile,
                                  std::span<const std::byte> data) {
  if (data.size() != spec_.fieldBytesPerRank)
    throw std::invalid_argument("block size mismatch");
  pwriteAll(impl_->fd, data, spec_.blockOffset(field, rankInFile));
  impl_->blockCrcs[static_cast<std::size_t>(field)]
                  [static_cast<std::size_t>(rankInFile)] = crc32(data);
  impl_->written[static_cast<std::size_t>(field)]
                [static_cast<std::size_t>(rankInFile)] = 1;
}

void CheckpointWriter::close() {
  if (impl_->fd < 0) return;
  for (std::uint32_t f = 0; f < spec_.numFields(); ++f) {
    for (std::uint32_t r = 0; r < spec_.ranksInFile; ++r)
      if (!impl_->written[f][r])
        throw std::runtime_error("block never written: field " +
                                 std::to_string(f) + " rank " +
                                 std::to_string(r));
    const auto header = encodeSectionHeader(
        spec_, static_cast<int>(f), combineBlockCrcs(impl_->blockCrcs[f]));
    pwriteAll(impl_->fd, header, spec_.sectionOffset(static_cast<int>(f)));
  }
  ::close(impl_->fd);
  impl_->fd = -1;
}

struct CheckpointReader::Impl {
  int fd = -1;
};

CheckpointReader::CheckpointReader(const std::string& path)
    : impl_(std::make_unique<Impl>()) {
  impl_->fd = ::open(path.c_str(), O_RDONLY);
  if (impl_->fd < 0)
    throw std::runtime_error("cannot open checkpoint file " + path + ": " +
                             std::strerror(errno));
  const auto header = preadAll(impl_->fd, kMasterHeaderBytes, 0);
  spec_ = decodeMasterHeader(header);
}

CheckpointReader::~CheckpointReader() {
  if (impl_ && impl_->fd >= 0) ::close(impl_->fd);
}

std::vector<std::byte> CheckpointReader::readBlock(int field,
                                                   int rankInFile) const {
  if (field < 0 || static_cast<std::uint32_t>(field) >= spec_.numFields() ||
      rankInFile < 0 ||
      static_cast<std::uint32_t>(rankInFile) >= spec_.ranksInFile)
    throw std::out_of_range("block index out of range");
  return preadAll(impl_->fd, spec_.fieldBytesPerRank,
                  spec_.blockOffset(field, rankInFile));
}

SectionInfo CheckpointReader::sectionInfo(int field) const {
  const auto bytes =
      preadAll(impl_->fd, kSectionHeaderBytes, spec_.sectionOffset(field));
  return decodeSectionHeader(bytes);
}

bool CheckpointReader::verify() const {
  const OpenFile file{impl_->fd, &spec_};
  return verifySections({&file, 1});
}

bool verifyFiles(std::span<const std::string> paths) {
  std::vector<std::unique_ptr<CheckpointReader>> readers;
  try {
    for (const auto& path : paths)
      readers.push_back(std::make_unique<CheckpointReader>(path));
  } catch (const std::runtime_error&) {
    return false;  // unopenable, truncated or corrupt master header
  }
  std::vector<OpenFile> files;
  for (const auto& reader : readers)
    files.push_back({reader->impl_->fd, &reader->spec_});
  return verifySections(files);
}

}  // namespace bgckpt::iofmt
