// File layout and payload pattern shared by all strategies.
//
// Within one output file holding a group of `groupSize` ranks, data is
// field-major (all ranks' field 0, then field 1, ...) so that grid-point
// numbering stays consistent in file scope — the constraint that forces
// nf=1 writers to commit each field before the next (Section V-B).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "iolib/spec.hpp"

namespace bgckpt::iolib {

class GroupFileLayout {
 public:
  /// Holds a copy of the spec, so temporaries are safe to pass.
  GroupFileLayout(CheckpointSpec spec, int groupSize)
      : spec_(std::move(spec)), groupSize_(groupSize) {}

  /// Offset of `rankInGroup`'s block of `field` within the file.
  std::uint64_t fieldOffset(int field, int rankInGroup) const {
    return spec_.headerBytes +
           (static_cast<std::uint64_t>(field) *
                static_cast<std::uint64_t>(groupSize_) +
            static_cast<std::uint64_t>(rankInGroup)) *
               spec_.fieldBytesPerRank;
  }

  /// Start of a whole field section (all group ranks).
  std::uint64_t fieldSectionOffset(int field) const {
    return fieldOffset(field, 0);
  }
  sim::Bytes fieldSectionBytes() const {
    return static_cast<sim::Bytes>(groupSize_) * spec_.fieldBytesPerRank;
  }

  sim::Bytes fileBytes() const {
    return spec_.headerBytes +
           static_cast<sim::Bytes>(spec_.numFields) * fieldSectionBytes();
  }

 private:
  CheckpointSpec spec_;
  int groupSize_;
};

/// Deterministic content byte for (rank, field, index) — lets every
/// strategy generate identical logical data so file images can be compared
/// byte for byte.
inline std::byte patternByte(int globalRank, int field, std::uint64_t index) {
  const auto x = static_cast<std::uint64_t>(globalRank) * 2654435761ULL ^
                 static_cast<std::uint64_t>(field) * 40503ULL ^
                 index * 11400714819323198485ULL;
  return static_cast<std::byte>((x >> 32) & 0xff);
}

/// One rank's package: its fields concatenated field-by-field.
std::vector<std::byte> makeRankPayload(const CheckpointSpec& spec,
                                       int globalRank);

/// Header content for a file (small, deterministic).
std::vector<std::byte> makeHeaderPayload(const CheckpointSpec& spec,
                                         int part);

}  // namespace bgckpt::iolib
