// Restart reader: the "special reader interface" of Section III-B. Opens a
// checkpoint part file, dumps the master header, the offset table and
// per-section statistics, and verifies the checksums — useful for
// post-processing and debugging checkpoint sets.
//
//   $ ./restart_reader <file>
//   $ ./restart_reader            (writes and inspects a demo file)
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "iofmt/file_io.hpp"

using namespace bgckpt;

namespace {

std::string makeDemoFile() {
  const auto path = std::filesystem::temp_directory_path() /
                    "bgckpt_restart_reader_demo.ckpt";
  iofmt::FileSpec spec;
  spec.step = 12;
  spec.part = 3;
  spec.partsInStep = 4;
  spec.ranksInFile = 4;
  spec.firstGlobalRank = 12;
  spec.fieldBytesPerRank = 64 * 1024;
  spec.simTime = 3.75;
  spec.iteration = 1500;
  spec.application = "nekcem-mini";
  spec.fieldNames = {"Ex", "Ey", "Ez", "Hx", "Hy", "Hz"};
  iofmt::CheckpointWriter writer(path.string(), spec);
  std::vector<std::byte> block(spec.fieldBytesPerRank);
  for (int f = 0; f < 6; ++f)
    for (int r = 0; r < 4; ++r) {
      for (std::size_t i = 0; i < block.size(); ++i) {
        const double v = 0.1 * f + 0.01 * r;
        std::memcpy(block.data() + (i / 8) * 8, &v, sizeof(double));
        i += 7;
      }
      writer.writeBlock(f, r, block);
    }
  writer.close();
  return path.string();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : makeDemoFile();
  std::printf("inspecting %s\n\n", path.c_str());

  iofmt::CheckpointReader reader(path);
  const auto& spec = reader.spec();
  std::printf("== master header ==\n");
  std::printf("  application   : %s\n", spec.application.c_str());
  std::printf("  step / part   : %u / %u\n", spec.step, spec.part);
  std::printf("  ranks in file : %u (global ranks %u..%u)\n",
              spec.ranksInFile, spec.firstGlobalRank,
              spec.firstGlobalRank + spec.ranksInFile - 1);
  std::printf("  sim time      : %.6f (iteration %llu)\n", spec.simTime,
              static_cast<unsigned long long>(spec.iteration));
  std::printf("  fields        : %u x %llu bytes per rank\n",
              spec.numFields(),
              static_cast<unsigned long long>(spec.fieldBytesPerRank));
  std::printf("  file size     : %llu bytes\n",
              static_cast<unsigned long long>(spec.fileBytes()));

  std::printf("\n== offset table ==\n");
  for (std::uint32_t f = 0; f < spec.numFields(); ++f) {
    const auto info = reader.sectionInfo(static_cast<int>(f));
    std::printf("  %-8s @ %10llu  %10llu bytes  crc 0x%08X\n",
                info.name.c_str(),
                static_cast<unsigned long long>(
                    spec.sectionOffset(static_cast<int>(f))),
                static_cast<unsigned long long>(info.dataBytes), info.crc);
  }

  std::printf("\n== per-field statistics (as doubles) ==\n");
  for (std::uint32_t f = 0; f < spec.numFields(); ++f) {
    double mn = 1e300, mx = -1e300, sum = 0;
    std::uint64_t count = 0;
    for (std::uint32_t r = 0; r < spec.ranksInFile; ++r) {
      const auto block =
          reader.readBlock(static_cast<int>(f), static_cast<int>(r));
      for (std::size_t i = 0; i + 8 <= block.size(); i += 8) {
        double v;
        std::memcpy(&v, block.data() + i, sizeof(v));
        mn = std::min(mn, v);
        mx = std::max(mx, v);
        sum += v;
        ++count;
      }
    }
    std::printf("  %-8s min %12.5g  max %12.5g  mean %12.5g\n",
                spec.fieldNames[f].c_str(), mn, mx,
                sum / static_cast<double>(count));
  }

  std::printf("\nchecksum verification: %s\n",
              reader.verify() ? "OK" : "FAILED");
  return reader.verify() ? 0 : 1;
}
