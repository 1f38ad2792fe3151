#include "iolib/layout.hpp"

namespace bgckpt::iolib {

std::vector<std::byte> makeRankPayload(const CheckpointSpec& spec,
                                       int globalRank) {
  std::vector<std::byte> out;
  out.resize(spec.bytesPerRank());
  std::size_t cursor = 0;
  for (int f = 0; f < spec.numFields; ++f)
    for (std::uint64_t i = 0; i < spec.fieldBytesPerRank; ++i)
      out[cursor++] = patternByte(globalRank, f, i);
  return out;
}

std::vector<std::byte> makeHeaderPayload(const CheckpointSpec& spec,
                                         int part) {
  std::vector<std::byte> out(spec.headerBytes, std::byte{0});
  const std::string text = "# vtk-like master header, step " +
                           std::to_string(spec.step) + " part " +
                           std::to_string(part) + ", fields " +
                           std::to_string(spec.numFields);
  for (std::size_t i = 0; i < text.size() && i < out.size(); ++i)
    out[i] = static_cast<std::byte>(text[i]);
  return out;
}

}  // namespace bgckpt::iolib
