#include "hostio/host_checkpoint.hpp"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "iofmt/file_io.hpp"
#include "iolib/plan.hpp"

namespace bgckpt::hostio {

namespace {

using Clock = std::chrono::steady_clock;  // srclint:allow(wall-clock): hostio measures real host I/O, not simulated time

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One aggregated handoff: the worker's rank (its blocks are
/// data[rank]) plus its trace context, so the writer can link the block
/// into its aggregate's lineage.
struct Package {
  int rank = 0;
  obs::OpTraceContext trace;
};

/// One aggregated part: the queue carrying its workers' packages to its
/// writer (the MPI_Isend analogue), and the latch two-phase workers wait on
/// until the writer has committed. finish() opens the latch and ends the
/// queue, after the commit or when a rank of the part failed.
class PartChannel {
 public:
  void push(Package pkg) {
    {
      std::lock_guard lock(mu_);
      items_.push_back(pkg);
    }
    ready_.notify_one();
  }
  /// The next package; nothing once the part is finished and drained.
  std::optional<Package> pop() {
    std::unique_lock lock(mu_);
    ready_.wait(lock, [this] { return !items_.empty() || finished_; });
    if (items_.empty()) return std::nullopt;
    auto item = items_.front();
    items_.pop_front();
    return item;
  }
  void finish() {
    {
      std::lock_guard lock(mu_);
      finished_ = true;
    }
    ready_.notify_all();
    done_.notify_all();
  }
  void awaitFinished() {
    std::unique_lock lock(mu_);
    done_.wait(lock, [this] { return finished_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable ready_;
  std::condition_variable done_;
  std::deque<Package> items_;
  bool finished_ = false;
};

/// The plan of a host strategy: two-phase is coIO done the rbIO way, one
/// aggregator per file.
iolib::CheckpointPlan makePlan(HostStrategy strategy, int np, int nf) {
  switch (strategy) {
    case HostStrategy::k1Pfpp: return {np, iolib::StrategyKind::k1Pfpp, 0, 1};
    case HostStrategy::kCoIo: return {np, iolib::StrategyKind::kCoIo, nf, 1};
    case HostStrategy::kCoIoTwoPhase:
    case HostStrategy::kRbIo: break;
  }
  return iolib::CheckpointPlan::writerPerPart(np, nf);
}

iofmt::FileSpec makeFileSpec(const HostSpec& spec,
                             const iolib::CheckpointPlan& plan, int part) {
  iofmt::FileSpec fs;
  fs.step = static_cast<std::uint32_t>(spec.step);
  fs.part = static_cast<std::uint32_t>(part);
  fs.partsInStep = static_cast<std::uint32_t>(plan.numParts());
  fs.ranksInFile = static_cast<std::uint32_t>(plan.ranksPerPart());
  fs.firstGlobalRank = static_cast<std::uint32_t>(plan.firstRank(part));
  fs.fieldBytesPerRank = spec.fieldBytesPerRank;
  fs.simTime = spec.simTime;
  fs.iteration = spec.iteration;
  fs.application = "bgckpt-host";
  fs.fieldNames = spec.fieldNames;
  return fs;
}

void validate(const HostSpec& spec, const std::vector<HostRankData>& data) {
  if (spec.fieldNames.empty()) throw std::invalid_argument("no fields");
  for (const auto& rank : data) {
    if (rank.fields.size() != spec.fieldNames.size())
      throw std::invalid_argument("rank data field count mismatch");
    for (const auto& f : rank.fields)
      if (f.size() != spec.fieldBytesPerRank)
        throw std::invalid_argument("rank data field size mismatch");
  }
}

}  // namespace

HostRunResult writeCheckpoint(const HostSpec& spec, const HostConfig& config,
                              const std::vector<HostRankData>& data) {
  validate(spec, data);
  const int np = static_cast<int>(data.size());
  const iolib::CheckpointPlan plan = makePlan(config.strategy, np, config.nf);
  const int numFields = static_cast<int>(spec.fieldNames.size());
  const bool aggregated = plan.kind() == iolib::StrategyKind::kRbIo;

  HostRunResult result;
  result.perRankSeconds.assign(static_cast<std::size_t>(np), 0.0);
  for (int part = 0; part < plan.numParts(); ++part)
    result.files.push_back(iolib::partPath(spec.directory, spec.step, part));
  std::filesystem::create_directories(spec.directory);
  auto openPart = [&](int part) {
    return std::make_unique<iofmt::CheckpointWriter>(
        result.files[static_cast<std::size_t>(part)],
        makeFileSpec(spec, plan, part));
  };

  // coIO's shared files: opened before the start, closed after the join.
  std::vector<std::unique_ptr<iofmt::CheckpointWriter>> sharedWriters;
  if (config.strategy == HostStrategy::kCoIo)
    for (int part = 0; part < plan.numParts(); ++part)
      sharedWriters.push_back(openPart(part));
  std::vector<PartChannel> channels(
      aggregated ? static_cast<std::size_t>(plan.numParts()) : 0);

  std::vector<double> handoff(static_cast<std::size_t>(np), 0.0);
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(np));
  std::barrier gate(np);
  const auto t0 = Clock::now();

  // The OpTracer is single-threaded state shared by N real threads here;
  // every tracer touch goes through this mutex. Timestamps are wall
  // seconds since t0 (the coordinated start), the host analogue of
  // simulated time.
  std::mutex traceMu;
  const std::uint64_t payloadPerRank =
      static_cast<std::uint64_t>(numFields) * spec.fieldBytesPerRank;

  auto writeBlocks = [&](iofmt::CheckpointWriter& writer, int rank) {
    for (int f = 0; f < numFields; ++f)
      writer.writeBlock(f, plan.slotOf(rank),
                        data[static_cast<std::size_t>(rank)]
                            .fields[static_cast<std::size_t>(f)]);
  };

  // 1PFPP and coIO: every rank writes its own blocks, a 1PFPP rank into a
  // file it creates and closes itself. Returns the bytes committed.
  auto direct = [&](int rank) -> std::uint64_t {
    const int part = plan.partOf(rank);
    if (!sharedWriters.empty()) {
      writeBlocks(*sharedWriters[static_cast<std::size_t>(part)], rank);
    } else {
      const auto writer = openPart(part);
      writeBlocks(*writer, rank);
      writer->close();
    }
    return payloadPerRank;
  };

  // rbIO and coIO two-phase: workers hand their blocks to the part's
  // writer, which alone touches the file. A two-phase worker then blocks
  // until the part is committed (collective semantics); an rbIO worker is
  // done. Returns the bytes committed (0 for a worker: the writer's commit
  // completes its trace).
  auto aggregate = [&](int rank, const obs::OpTraceContext& otc,
                       Clock::time_point start) -> std::uint64_t {
    const int part = plan.partOf(rank);
    auto& channel = channels[static_cast<std::size_t>(part)];
    if (!plan.isWriter(rank)) {
      channel.push(Package{rank, otc});
      handoff[static_cast<std::size_t>(rank)] = seconds(start, Clock::now());
      if (otc.live()) {
        std::lock_guard lock(traceMu);
        otc.hop(obs::Hop::kHandoffSend, seconds(t0, start),
                seconds(t0, Clock::now()), payloadPerRank);
      }
      if (config.strategy == HostStrategy::kCoIoTwoPhase)
        channel.awaitFinished();
      return 0;
    }
    const auto writer = openPart(part);
    writeBlocks(*writer, rank);  // own blocks first, then the group's
    for (int received = 1; received < plan.groupSize(); ++received) {
      const auto pkg = channel.pop();
      if (!pkg) return 0;  // a worker failed and reports it
      writeBlocks(*writer, pkg->rank);
      if (otc.live()) {
        std::lock_guard lock(traceMu);
        otc.link(pkg->trace);
      }
    }
    writer->close();
    channel.finish();
    return payloadPerRank * static_cast<std::uint64_t>(plan.groupSize());
  };

  auto rankBody = [&](int rank) {
    gate.arrive_and_wait();  // coordinated checkpoint start
    const auto start = Clock::now();
    try {
      obs::OpTraceContext otc;
      if (config.tracer != nullptr) {
        std::lock_guard lock(traceMu);
        // srclint:allow(optrace-mint): hostio is a strategy-level backend; its rank writes originate here
        otc = obs::mintOpTrace(
            config.tracer, rank, "host",
            static_cast<std::uint64_t>(rank) * payloadPerRank,
            payloadPerRank, seconds(t0, start));
      }
      const std::uint64_t committed =
          aggregated ? aggregate(rank, otc, start) : direct(rank);
      if (committed > 0 && otc.live()) {
        std::lock_guard lock(traceMu);
        const double end = seconds(t0, Clock::now());
        otc.hop(obs::Hop::kHostWrite, seconds(t0, start), end, committed);
        otc.complete(end);
      }
    } catch (...) {
      errors[static_cast<std::size_t>(rank)] = std::current_exception();
      // Release whoever waits behind this rank: its part's writer or
      // two-phase workers.
      if (aggregated)
        channels[static_cast<std::size_t>(plan.partOf(rank))].finish();
    }
    result.perRankSeconds[static_cast<std::size_t>(rank)] =
        seconds(start, Clock::now());
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(np));
  for (int r = 0; r < np; ++r) {
    try {
      threads.emplace_back(rankBody, r);
    } catch (const std::system_error&) {
      // The host refused a thread: that rank fails, and nobody waits on it.
      errors[static_cast<std::size_t>(r)] = std::current_exception();
      gate.arrive_and_drop();
      if (aggregated)
        channels[static_cast<std::size_t>(plan.partOf(r))].finish();
    }
  }
  for (auto& t : threads) t.join();
  // Every thread has joined; the lowest failing rank's error wins, as in
  // sim::parallelFor.
  for (const auto& error : errors)
    if (error) std::rethrow_exception(error);

  // coIO shared files close after all ranks contributed.
  for (auto& writer : sharedWriters) writer->close();

  result.wallSeconds = seconds(t0, Clock::now());
  result.bandwidth =
      static_cast<double>(np) * static_cast<double>(payloadPerRank) /
      result.wallSeconds;
  if (config.strategy == HostStrategy::kRbIo) {
    // Writers hand nothing off: their entries stay 0.
    result.maxHandoffSeconds =
        *std::max_element(handoff.begin(), handoff.end());
    const double workerBytes = static_cast<double>(np - plan.numWriters()) *
                               static_cast<double>(payloadPerRank);
    result.perceivedBandwidth = result.maxHandoffSeconds > 0
                                    ? workerBytes / result.maxHandoffSeconds
                                    : 0;
  }
  return result;
}

std::vector<HostRankData> readCheckpoint(HostSpec& spec, int np) {
  std::vector<HostRankData> data(static_cast<std::size_t>(np));
  int ranksSeen = 0;
  for (int part = 0; ranksSeen < np; ++part) {
    const auto path = iolib::partPath(spec.directory, spec.step, part);
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
  // Part 0's master header names the step's part count: exactly that many
  // parts must exist, and each must verify.
  std::uint32_t parts = 0;
  try {
    parts = iofmt::CheckpointReader(
                iolib::partPath(spec.directory, spec.step, 0))
                .spec()
                .partsInStep;
  } catch (const std::runtime_error&) {
    return false;  // missing, truncated or corrupt
  }
  std::vector<std::string> paths;
  for (int part = 0; part < static_cast<int>(parts); ++part)
    paths.push_back(iolib::partPath(spec.directory, spec.step, part));
  return !std::filesystem::exists(iolib::partPath(
             spec.directory, spec.step, static_cast<int>(parts))) &&
         iofmt::verifyFiles(paths);
}

}  // namespace bgckpt::hostio
