// Microbenchmarks of the host-side real-file path: checksum throughput,
// block writes through the container format, and the three strategies
// end-to-end at laptop scale (files under /tmp).
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "hostio/host_checkpoint.hpp"
#include "iofmt/file_io.hpp"
#include "obs/attr.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/optrace.hpp"

namespace {

using namespace bgckpt;

std::filesystem::path benchDir() {
  return std::filesystem::temp_directory_path() /
         ("bgckpt_microbench_" + std::to_string(::getpid()));
}

void BM_Crc32(benchmark::State& state) {
  std::vector<std::byte> data(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::byte>(i * 31);
  for (auto _ : state) benchmark::DoNotOptimize(iofmt::crc32(data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64 << 10)->Arg(4 << 20);

// Restart-path verification of one file: 6 sections of 16 ranks x 1 MiB,
// re-derived concurrently from the page cache.
void BM_VerifyCheckpoint(benchmark::State& state) {
  const auto dir = benchDir();
  hostio::HostSpec spec;
  spec.directory = dir.string();
  iofmt::FileSpec fs;
  fs.ranksInFile = 16;
  fs.fieldBytesPerRank = 1 << 20;
  fs.fieldNames = {"Ex", "Ey", "Ez", "Hx", "Hy", "Hz"};
  {
    iofmt::CheckpointWriter writer(hostio::hostCheckpointPath(spec, 0), fs);
    std::vector<std::byte> block(fs.fieldBytesPerRank);
    for (std::size_t i = 0; i < block.size(); ++i)
      block[i] = static_cast<std::byte>(i * 31);
    for (int f = 0; f < 6; ++f)
      for (int r = 0; r < 16; ++r) writer.writeBlock(f, r, block);
    writer.close();
  }
  for (auto _ : state)
    if (!hostio::verifyCheckpoint(spec)) {
      state.SkipWithError("freshly written checkpoint failed to verify");
      break;
    }
  state.SetBytesProcessed(state.iterations() * 6 * 16 *
                          static_cast<std::int64_t>(fs.fieldBytesPerRank));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_VerifyCheckpoint)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_WriterBlockWrites(benchmark::State& state) {
  const auto dir = benchDir();
  std::filesystem::create_directories(dir);
  iofmt::FileSpec spec;
  spec.ranksInFile = 16;
  spec.fieldBytesPerRank = static_cast<std::uint64_t>(state.range(0));
  spec.fieldNames = {"Ex", "Ey", "Ez", "Hx", "Hy", "Hz"};
  std::vector<std::byte> block(spec.fieldBytesPerRank, std::byte{0x5A});
  for (auto _ : state) {
    iofmt::CheckpointWriter writer((dir / "bench_ckpt").string(), spec);
    for (int f = 0; f < 6; ++f)
      for (int r = 0; r < 16; ++r) writer.writeBlock(f, r, block);
    writer.close();
  }
  state.SetBytesProcessed(state.iterations() * 6 * 16 * state.range(0));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_WriterBlockWrites)->Arg(64 << 10)->Iterations(20);

void runStrategy(benchmark::State& state, hostio::HostStrategy strategy) {
  const auto dir = benchDir();
  constexpr int kRanks = 8;
  hostio::HostSpec spec;
  spec.fieldNames = {"Ex", "Ey", "Ez", "Hx", "Hy", "Hz"};
  spec.fieldBytesPerRank = static_cast<std::uint64_t>(state.range(0));
  std::vector<hostio::HostRankData> data(kRanks);
  for (auto& r : data)
    r.fields.assign(6, std::vector<std::byte>(spec.fieldBytesPerRank,
                                              std::byte{0x33}));
  int step = 0;
  for (auto _ : state) {
    spec.directory = (dir / std::to_string(step++)).string();
    auto result = hostio::writeCheckpoint(
        spec, hostio::HostConfig{strategy, 2}, data);
    benchmark::DoNotOptimize(result.bandwidth);
  }
  state.SetBytesProcessed(state.iterations() * kRanks * 6 * state.range(0));
  std::filesystem::remove_all(dir);
}

void BM_Host1Pfpp(benchmark::State& state) {
  runStrategy(state, hostio::HostStrategy::k1Pfpp);
}
void BM_HostCoIo(benchmark::State& state) {
  runStrategy(state, hostio::HostStrategy::kCoIo);
}
void BM_HostRbIo(benchmark::State& state) {
  runStrategy(state, hostio::HostStrategy::kRbIo);
}
BENCHMARK(BM_Host1Pfpp)->Arg(256 << 10)->Iterations(25);
BENCHMARK(BM_HostCoIo)->Arg(256 << 10)->Iterations(25);
BENCHMARK(BM_HostRbIo)->Arg(256 << 10)->Iterations(25);

std::optional<obs::json::Value> parseJsonFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  return obs::json::parse(text);
}

// Observability on the real-file backend: rbIO at host scale with per-rank
// causal tracing and blocked-time attribution, asserting both artifacts
// are produced and schema-valid (the obs suites otherwise only exercise
// the simulated mpisim figures).
void BM_HostObsArtifacts(benchmark::State& state) {
  const auto dir = benchDir();
  std::filesystem::create_directories(dir);
  constexpr int kRanks = 8;
  constexpr int kNf = 2;
  constexpr int kGroupSize = kRanks / kNf;
  hostio::HostSpec spec;
  spec.fieldNames = {"Ex", "Ey", "Ez", "Hx", "Hy", "Hz"};
  spec.fieldBytesPerRank = static_cast<std::uint64_t>(state.range(0));
  std::vector<hostio::HostRankData> data(kRanks);
  for (auto& r : data)
    r.fields.assign(6, std::vector<std::byte>(spec.fieldBytesPerRank,
                                              std::byte{0x33}));
  const std::string attrJson = (dir / "attr.json").string();
  const std::string optraceJson = (dir / "optrace.json").string();
  const std::uint64_t perRankBytes = 6 * spec.fieldBytesPerRank;
  int step = 0;
  for (auto _ : state) {
    obs::Observability obs;
    auto attr = std::make_shared<obs::AttributionSink>();
    attr->exportTo(attrJson);
    obs.addSink(attr);
    obs::OpTraceSink& sink = obs.attachOpTrace(/*sampleEvery=*/1);
    sink.exportTo(optraceJson);

    spec.directory = (dir / std::to_string(step++)).string();
    hostio::HostConfig config{hostio::HostStrategy::kRbIo, kNf};
    config.tracer = obs.opTracer();
    const auto result = hostio::writeCheckpoint(spec, config, data);

    // Replay each rank's measured envelope into the attribution engine:
    // the wall time a rank spent inside the checkpoint is its blocked
    // time, split into the handoff (workers) or the write (writers).
    for (int r = 0; r < kRanks; ++r) {
      const double end = result.perRankSeconds[static_cast<std::size_t>(r)];
      const bool isWriter = r % kGroupSize == 0;
      obs.begin(obs::Layer::kApp, r, "checkpoint", 0.0);
      obs.completeBytes(obs::Layer::kIo, r, isWriter ? "write" : "send", 0.0,
                        end, perRankBytes);
      obs.end(obs::Layer::kApp, r, "checkpoint", end);
    }
    obs.finalize(result.wallSeconds);

    const auto attrDoc = parseJsonFile(attrJson);
    if (!attrDoc || !attrDoc->isObject() ||
        attrDoc->find("totals") == nullptr ||
        attrDoc->find("ranks") == nullptr ||
        attrDoc->numberOr("horizon_seconds", 0) <= 0) {
      state.SkipWithError("attribution artifact missing or malformed");
      break;
    }
    const auto optraceDoc = parseJsonFile(optraceJson);
    if (!optraceDoc ||
        optraceDoc->stringOr("schema", "") != obs::OpTracer::kSchemaVersion) {
      state.SkipWithError("optrace artifact missing or schema-invalid");
      break;
    }
    const obs::OpTracer& tracer = sink.tracer();
    // One "host" request per rank; every worker block linked into its
    // writer's aggregate (fan-in = groupSize - 1 workers per writer).
    if (tracer.minted() != kRanks || tracer.completed() != kRanks ||
        tracer.lineageEdges() != kRanks - kNf ||
        tracer.fanIn().median() != kGroupSize - 1) {
      state.SkipWithError("optrace lineage does not match the rbIO fan-in");
      break;
    }
    benchmark::DoNotOptimize(result.bandwidth);
  }
  state.SetBytesProcessed(state.iterations() * kRanks * 6 * state.range(0));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_HostObsArtifacts)->Arg(64 << 10)->Iterations(5);

}  // namespace
