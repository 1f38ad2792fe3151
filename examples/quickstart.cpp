// Quickstart: checkpoint and restart an application state with each of the
// paper's three strategies, on real files with 8 worker threads.
//
//   $ ./quickstart [directory]
//
// Demonstrates the core public API of the host backend:
//   hostio::writeCheckpoint / readCheckpoint / verifyCheckpoint.
#include <cstdio>
#include <filesystem>

#include "hostio/host_checkpoint.hpp"

using namespace bgckpt;

int main(int argc, char** argv) {
  const std::string base =
      argc > 1 ? argv[1]
               : (std::filesystem::temp_directory_path() / "bgckpt_quickstart")
                     .string();
  std::printf("bgckpt quickstart: 8 ranks, 6 fields of 512 KiB each\n");
  std::printf("checkpoint directory: %s\n\n", base.c_str());

  // 1. Invent some per-rank application state (six field blocks per rank,
  //    exactly how NekCEM hands E and H to the checkpoint layer).
  hostio::HostSpec spec;
  spec.fieldNames = {"Ex", "Ey", "Ez", "Hx", "Hy", "Hz"};
  spec.fieldBytesPerRank = 512 * 1024;
  spec.simTime = 12.5;
  spec.iteration = 4200;
  constexpr int kRanks = 8;
  std::vector<hostio::HostRankData> state(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    state[static_cast<std::size_t>(r)].fields.resize(6);
    for (int f = 0; f < 6; ++f) {
      auto& block = state[static_cast<std::size_t>(r)]
                        .fields[static_cast<std::size_t>(f)];
      block.resize(spec.fieldBytesPerRank);
      for (std::size_t i = 0; i < block.size(); ++i)
        block[i] = static_cast<std::byte>((r * 6 + f + i) & 0xFF);
    }
  }

  // 2. Write one checkpoint with each strategy.
  struct Variant {
    const char* name;
    hostio::HostConfig config;
  };
  const Variant variants[] = {
      {"1PFPP (one file per rank)", {hostio::HostStrategy::k1Pfpp, 0}},
      {"coIO  (2 shared files)", {hostio::HostStrategy::kCoIo, 2}},
      {"rbIO  (2 writers, reduced blocking)",
       {hostio::HostStrategy::kRbIo, 2}},
  };
  for (const auto& v : variants) {
    hostio::HostSpec s = spec;
    s.directory = base + "/" + std::to_string(static_cast<int>(
                                   v.config.strategy));
    const auto result = hostio::writeCheckpoint(s, v.config, state);
    std::printf("%-38s %zu part files\n", v.name, result.files.size());
    // Host timings vary run to run, so they go to stderr: stdout stays
    // comparable with plain diff.
    std::fflush(stdout);
    std::fprintf(stderr, "[host] %.1f ms, %.1f MB/s", result.wallSeconds * 1e3,
                 result.bandwidth / 1e6);
    if (v.config.strategy == hostio::HostStrategy::kRbIo)
      std::fprintf(stderr, "  (perceived by workers: %.1f GB/s)",
                   result.perceivedBandwidth / 1e9);
    std::fprintf(stderr, "\n");
    if (!hostio::verifyCheckpoint(s)) {
      std::printf("checksum verification FAILED\n");
      return 1;
    }
  }

  // 3. Restart from the rbIO checkpoint and confirm the state survived.
  hostio::HostSpec restart;
  restart.directory = base + "/" + std::to_string(static_cast<int>(
                                       hostio::HostStrategy::kRbIo));
  restart.step = spec.step;
  const auto back = hostio::readCheckpoint(restart, kRanks);
  for (int r = 0; r < kRanks; ++r)
    for (int f = 0; f < 6; ++f)
      if (back[static_cast<std::size_t>(r)]
              .fields[static_cast<std::size_t>(f)] !=
          state[static_cast<std::size_t>(r)]
              .fields[static_cast<std::size_t>(f)]) {
        std::printf("restart mismatch at rank %d field %d\n", r, f);
        return 1;
      }
  std::printf("\nrestart OK: state t=%.2f iteration=%llu restored "
              "bit-for-bit from the rbIO checkpoint\n",
              restart.simTime,
              static_cast<unsigned long long>(restart.iteration));
  std::filesystem::remove_all(base);
  return 0;
}
