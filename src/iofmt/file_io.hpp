// Real-file checkpoint writer/reader (POSIX pwrite/pread).
//
// The writer supports concurrent block writes from multiple threads: each
// (field, rank) block has a fixed offset, so writers never overlap. Section
// checksums are defined as the CRC32 over the little-endian per-block CRCs
// in rank order, which lets blocks arrive in any order (and from any
// thread) without a streaming dependency.
#pragma once

#include <memory>
#include <string>

#include "iofmt/format.hpp"

namespace bgckpt::iofmt {

class CheckpointWriter {
 public:
  /// Creates/truncates `path` and writes the master header immediately.
  CheckpointWriter(const std::string& path, FileSpec spec);
  ~CheckpointWriter();
  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  const FileSpec& spec() const { return spec_; }

  /// Write one rank's block of one field. Thread-safe across distinct
  /// (field, rankInFile) pairs. `data.size()` must equal
  /// spec().fieldBytesPerRank.
  void writeBlock(int field, int rankInFile,
                  std::span<const std::byte> data);

  /// Write section headers (with checksums) and close the file. Throws if
  /// any block was never written.
  void close();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  FileSpec spec_;
};

class CheckpointReader {
 public:
  explicit CheckpointReader(const std::string& path);
  ~CheckpointReader();
  CheckpointReader(const CheckpointReader&) = delete;
  CheckpointReader& operator=(const CheckpointReader&) = delete;

  const FileSpec& spec() const { return spec_; }

  std::vector<std::byte> readBlock(int field, int rankInFile) const;

  /// verifyFiles() for this one file.
  bool verify() const;

  SectionInfo sectionInfo(int field) const;

 private:
  friend bool verifyFiles(std::span<const std::string> paths);
  struct Impl;
  std::unique_ptr<Impl> impl_;
  FileSpec spec_;
};

/// Re-derive every section checksum of every file and compare it, and each
/// section header's name and size, against the stored ones. Sections are
/// checked concurrently on min(hardware threads, sections) workers, each
/// streaming its blocks through one fixed read buffer. A missing,
/// truncated or corrupt file reads as false, never as an exception.
bool verifyFiles(std::span<const std::string> paths);

}  // namespace bgckpt::iofmt
