#include "hostio/host_checkpoint.hpp"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "iofmt/file_io.hpp"

namespace bgckpt::hostio {

namespace {

using Clock = std::chrono::steady_clock;  // srclint:allow(wall-clock): hostio measures real host I/O, not simulated time

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One rbIO/two-phase handoff: the worker's block plus its trace context,
/// so the writer can link the block into its aggregate's lineage.
struct Package {
  int rank = 0;
  const HostRankData* data = nullptr;
  obs::OpTraceContext trace;
};

/// Simple MPSC handoff queue for rbIO worker -> writer packages.
class PackageQueue {
 public:
  void push(Package pkg) {
    {
      std::lock_guard lock(mu_);
      items_.push_back(pkg);
    }
    cv_.notify_one();
  }
  Package pop() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [this] { return !items_.empty(); });
    auto item = items_.front();
    items_.pop_front();
    return item;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Package> items_;
};

iofmt::FileSpec makeFileSpec(const HostSpec& spec, int part, int ranksInFile,
                             int firstGlobalRank) {
  iofmt::FileSpec fs;
  fs.step = static_cast<std::uint32_t>(spec.step);
  fs.part = static_cast<std::uint32_t>(part);
  fs.ranksInFile = static_cast<std::uint32_t>(ranksInFile);
  fs.firstGlobalRank = static_cast<std::uint32_t>(firstGlobalRank);
  fs.fieldBytesPerRank = spec.fieldBytesPerRank;
  fs.simTime = spec.simTime;
  fs.iteration = spec.iteration;
  fs.application = "bgckpt-host";
  fs.fieldNames = spec.fieldNames;
  return fs;
}

void validate(const HostSpec& spec, const HostConfig& config,
              const std::vector<HostRankData>& data) {
  const int np = static_cast<int>(data.size());
  if (np == 0) throw std::invalid_argument("no ranks");
  if (spec.fieldNames.empty()) throw std::invalid_argument("no fields");
  if (config.strategy != HostStrategy::k1Pfpp &&
      (config.nf < 1 || np % config.nf != 0))
    throw std::invalid_argument("nf must divide np");
  for (const auto& rank : data) {
    if (rank.fields.size() != spec.fieldNames.size())
      throw std::invalid_argument("rank data field count mismatch");
    for (const auto& f : rank.fields)
      if (f.size() != spec.fieldBytesPerRank)
        throw std::invalid_argument("rank data field size mismatch");
  }
}

}  // namespace

std::string hostCheckpointPath(const HostSpec& spec, int part) {
  return spec.directory + "/s" + std::to_string(spec.step) + ".part" +
         std::to_string(part);
}

HostRunResult writeCheckpoint(const HostSpec& spec, const HostConfig& config,
                              const std::vector<HostRankData>& data) {
  validate(spec, config, data);
  const int np = static_cast<int>(data.size());
  const int numFields = static_cast<int>(spec.fieldNames.size());
  const int nf = config.strategy == HostStrategy::k1Pfpp ? np : config.nf;
  const int groupSize = np / nf;

  HostRunResult result;
  result.perRankSeconds.assign(static_cast<std::size_t>(np), 0.0);
  for (int part = 0; part < nf; ++part)
    result.files.push_back(hostCheckpointPath(spec, part));
  std::filesystem::create_directories(spec.directory);

  // Shared writers (one per output file) for the coIO strategy.
  std::vector<std::unique_ptr<iofmt::CheckpointWriter>> sharedWriters;
  if (config.strategy == HostStrategy::kCoIo) {
    for (int part = 0; part < nf; ++part)
      sharedWriters.push_back(std::make_unique<iofmt::CheckpointWriter>(
          result.files[static_cast<std::size_t>(part)],
          makeFileSpec(spec, part, groupSize, part * groupSize)));
  }
  // Handoff queues, one per writer/aggregator (= per file).
  const bool usesQueues = config.strategy == HostStrategy::kRbIo ||
                          config.strategy == HostStrategy::kCoIoTwoPhase;
  std::vector<PackageQueue> queues(
      usesQueues ? static_cast<std::size_t>(nf) : 0);
  // Per-group completion latches for the two-phase collective semantics.
  struct GroupDone {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
  };
  std::vector<GroupDone> groupDone(
      config.strategy == HostStrategy::kCoIoTwoPhase
          ? static_cast<std::size_t>(nf)
          : 0);

  std::vector<double> handoff(static_cast<std::size_t>(np), 0.0);
  std::barrier gate(np);
  const auto t0 = Clock::now();

  // The OpTracer is single-threaded state shared by N real threads here;
  // every tracer touch goes through this mutex. Timestamps are wall
  // seconds since t0 (the coordinated start), the host analogue of
  // simulated time.
  std::mutex traceMu;
  const std::uint64_t payloadPerRank =
      static_cast<std::uint64_t>(numFields) * spec.fieldBytesPerRank;

  auto rankBody = [&](int rank) {
    gate.arrive_and_wait();  // coordinated checkpoint start
    const auto start = Clock::now();
    const int group = rank / groupSize;
    obs::OpTraceContext otc;
    if (config.tracer != nullptr) {
      std::lock_guard lock(traceMu);
      // srclint:allow(optrace-mint): hostio is a strategy-level backend; its rank writes originate here
      otc = obs::mintOpTrace(config.tracer, rank, "host",
                             static_cast<std::uint64_t>(rank) * payloadPerRank,
                             payloadPerRank, seconds(t0, start));
    }
    switch (config.strategy) {
      case HostStrategy::k1Pfpp: {
        iofmt::CheckpointWriter writer(
            result.files[static_cast<std::size_t>(rank)],
            makeFileSpec(spec, rank, 1, rank));
        for (int f = 0; f < numFields; ++f)
          writer.writeBlock(f, 0,
                            data[static_cast<std::size_t>(rank)]
                                .fields[static_cast<std::size_t>(f)]);
        writer.close();
        if (otc.live()) {
          std::lock_guard lock(traceMu);
          const double end = seconds(t0, Clock::now());
          otc.hop(obs::Hop::kHostWrite, seconds(t0, start), end,
                  payloadPerRank);
          otc.complete(end);
        }
        break;
      }
      case HostStrategy::kCoIo: {
        auto& writer = *sharedWriters[static_cast<std::size_t>(group)];
        const int local = rank % groupSize;
        for (int f = 0; f < numFields; ++f)
          writer.writeBlock(f, local,
                            data[static_cast<std::size_t>(rank)]
                                .fields[static_cast<std::size_t>(f)]);
        if (otc.live()) {
          std::lock_guard lock(traceMu);
          const double end = seconds(t0, Clock::now());
          otc.hop(obs::Hop::kHostWrite, seconds(t0, start), end,
                  payloadPerRank);
          otc.complete(end);
        }
        break;
      }
      case HostStrategy::kCoIoTwoPhase: {
        const bool isAggregator = rank % groupSize == 0;
        if (!isAggregator) {
          queues[static_cast<std::size_t>(group)].push(
              Package{rank, &data[static_cast<std::size_t>(rank)], otc});
          if (otc.live()) {
            std::lock_guard lock(traceMu);
            otc.hop(obs::Hop::kHandoffSend, seconds(t0, start),
                    seconds(t0, Clock::now()), payloadPerRank);
          }
          // Collective: block until the group's file is on disk. The
          // aggregator cascade-completes this rank's trace at commit.
          auto& gd = groupDone[static_cast<std::size_t>(group)];
          std::unique_lock lock(gd.mu);
          gd.cv.wait(lock, [&gd] { return gd.done; });
          break;
        }
        iofmt::CheckpointWriter writer(
            result.files[static_cast<std::size_t>(group)],
            makeFileSpec(spec, group, groupSize, group * groupSize));
        for (int f = 0; f < numFields; ++f)
          writer.writeBlock(f, 0,
                            data[static_cast<std::size_t>(rank)]
                                .fields[static_cast<std::size_t>(f)]);
        for (int received = 1; received < groupSize; ++received) {
          auto pkg = queues[static_cast<std::size_t>(group)].pop();
          const int local = pkg.rank % groupSize;
          for (int f = 0; f < numFields; ++f)
            writer.writeBlock(f, local,
                              pkg.data->fields[static_cast<std::size_t>(f)]);
          if (otc.live()) {
            std::lock_guard lock(traceMu);
            otc.link(pkg.trace);
          }
        }
        writer.close();
        if (otc.live()) {
          std::lock_guard lock(traceMu);
          const double end = seconds(t0, Clock::now());
          otc.hop(obs::Hop::kHostWrite, seconds(t0, start), end,
                  payloadPerRank * static_cast<std::uint64_t>(groupSize));
          otc.complete(end);
        }
        {
          auto& gd = groupDone[static_cast<std::size_t>(group)];
          std::lock_guard lock(gd.mu);
          gd.done = true;
        }
        groupDone[static_cast<std::size_t>(group)].cv.notify_all();
        break;
      }
      case HostStrategy::kRbIo: {
        const bool isWriter = rank % groupSize == 0;
        if (!isWriter) {
          queues[static_cast<std::size_t>(group)].push(
              Package{rank, &data[static_cast<std::size_t>(rank)], otc});
          handoff[static_cast<std::size_t>(rank)] =
              seconds(start, Clock::now());
          if (otc.live()) {
            std::lock_guard lock(traceMu);
            // Perceived cost only; the block's journey ends when the
            // writer's aggregate commit cascade-completes it.
            otc.hop(obs::Hop::kHandoffSend, seconds(t0, start),
                    seconds(t0, Clock::now()), payloadPerRank);
          }
          break;  // the worker is done: reduced blocking
        }
        iofmt::CheckpointWriter writer(
            result.files[static_cast<std::size_t>(group)],
            makeFileSpec(spec, group, groupSize, group * groupSize));
        // Own blocks first, then drain the group's packages.
        for (int f = 0; f < numFields; ++f)
          writer.writeBlock(f, 0,
                            data[static_cast<std::size_t>(rank)]
                                .fields[static_cast<std::size_t>(f)]);
        for (int received = 1; received < groupSize; ++received) {
          auto pkg = queues[static_cast<std::size_t>(group)].pop();
          const int local = pkg.rank % groupSize;
          for (int f = 0; f < numFields; ++f)
            writer.writeBlock(f, local,
                              pkg.data->fields[static_cast<std::size_t>(f)]);
          if (otc.live()) {
            std::lock_guard lock(traceMu);
            otc.link(pkg.trace);
          }
        }
        writer.close();
        if (otc.live()) {
          std::lock_guard lock(traceMu);
          const double end = seconds(t0, Clock::now());
          otc.hop(obs::Hop::kHostWrite, seconds(t0, start), end,
                  payloadPerRank * static_cast<std::uint64_t>(groupSize));
          otc.complete(end);
        }
        break;
      }
    }
    result.perRankSeconds[static_cast<std::size_t>(rank)] =
        seconds(start, Clock::now());
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(np));
  for (int r = 0; r < np; ++r) threads.emplace_back(rankBody, r);
  for (auto& t : threads) t.join();

  // coIO shared files close after all ranks contributed.
  for (auto& writer : sharedWriters) writer->close();

  result.wallSeconds = seconds(t0, Clock::now());
  const double payload = static_cast<double>(np) * numFields *
                         static_cast<double>(spec.fieldBytesPerRank);
  result.bandwidth = payload / result.wallSeconds;
  if (config.strategy == HostStrategy::kRbIo) {
    double maxHandoff = 0, workerBytes = 0;
    for (int r = 0; r < np; ++r)
      if (r % groupSize != 0) {
        maxHandoff = std::max(maxHandoff,
                              handoff[static_cast<std::size_t>(r)]);
        workerBytes += static_cast<double>(numFields) *
                       static_cast<double>(spec.fieldBytesPerRank);
      }
    result.maxHandoffSeconds = maxHandoff;
    result.perceivedBandwidth =
        maxHandoff > 0 ? workerBytes / maxHandoff : 0;
  }
  return result;
}

std::vector<HostRankData> readCheckpoint(HostSpec& spec, int np) {
  std::vector<HostRankData> data(static_cast<std::size_t>(np));
  int ranksSeen = 0;
  for (int part = 0; ranksSeen < np; ++part) {
    const std::string path = hostCheckpointPath(spec, part);
    if (!std::filesystem::exists(path))
      throw std::runtime_error("missing checkpoint part: " + path);
    iofmt::CheckpointReader reader(path);
    const auto& fs = reader.spec();
    if (part == 0) {
      spec.fieldNames = fs.fieldNames;
      spec.fieldBytesPerRank = fs.fieldBytesPerRank;
      spec.simTime = fs.simTime;
      spec.iteration = fs.iteration;
    }
    for (std::uint32_t local = 0; local < fs.ranksInFile; ++local) {
      const auto globalRank = fs.firstGlobalRank + local;
      if (globalRank >= static_cast<std::uint32_t>(np))
        throw std::runtime_error("checkpoint holds more ranks than expected");
      auto& rank = data[globalRank];
      rank.fields.resize(fs.fieldNames.size());
      for (std::size_t f = 0; f < fs.fieldNames.size(); ++f)
        rank.fields[f] =
            reader.readBlock(static_cast<int>(f), static_cast<int>(local));
      ++ranksSeen;
    }
  }
  return data;
}

bool verifyCheckpoint(const HostSpec& spec) {
  std::vector<std::string> parts;
  for (int part = 0;; ++part) {
    auto path = hostCheckpointPath(spec, part);
    if (!std::filesystem::exists(path)) break;
    parts.push_back(std::move(path));
  }
  return !parts.empty() && iofmt::verifyFiles(parts);
}

}  // namespace bgckpt::hostio
