#include "fssim/parallel_fs.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace bgckpt::fs {

namespace detail {

struct FileState {
  explicit FileState(sim::Scheduler& sched)
      : tokenServer(sched, 1, "fs-token-server"),
        metanode(sched, 1, "fs-metanode") {}

  std::string path;
  std::uint64_t fileId = 0;
  RangeTokenManager tokens;
  sim::Resource tokenServer;  // serialises negotiations
  sim::Resource metanode;     // serialises size updates
  std::uint64_t sizeCommitted = 0;
  int lastExtender = -1;
};

}  // namespace detail

using detail::FileState;

FsConfig gpfsConfig() { return FsConfig{}; }

FsConfig pvfsConfig() {
  FsConfig cfg;
  cfg.name = "pvfs";
  cfg.usesTokens = false;
  cfg.tokenOpCost = 0.0;
  cfg.revocationCost = 0.0;
  cfg.sizeTokenBounceCost = 0.0;
  // PVFS: no client cache or lock overhead; per-stream service runs at the
  // hardware server rate, but small-file metadata goes through a single
  // metadata server with a flat (heavier) create cost and no thrash cliff.
  cfg.writeStreamBandwidth = 95e6;
  cfg.readStreamBandwidth = 120e6;
  cfg.createCost = 1.0e-3;
  cfg.createQueueScale = 1e18;       // flat MDS: no crowd dependence
  cfg.dirThrashThreshold = 1 << 30;  // no thrash regime
  return cfg;
}

namespace {

std::string directoryName(const std::string& path) {
  const auto pos = path.find_last_of('/');
  return pos == std::string::npos ? std::string() : path.substr(0, pos);
}

}  // namespace

ParallelFsSim::ParallelFsSim(sim::Scheduler& sched,
                             const machine::Machine& mach,
                             net::IonForwarding& ion,
                             stor::StorageFabric& fabric, std::uint64_t seed,
                             FsConfig config, obs::Observability* obs)
    : sched_(sched),
      mach_(mach),
      ion_(ion),
      fabric_(fabric),
      obs_(obs),
      rng_(seed, "fssim"),
      config_(std::move(config)) {
  if (obs_) {
    auto& m = obs_->metrics();
    // Bin spans chosen for the paper's regimes: creates stretch to whole
    // seconds under 1PFPP directory thrash; opens/closes are sub-ms
    // metadata ops; writes reach seconds when servers queue.
    mCreateLatency_ = &m.histogram("fs.create.latency", 0.0, 1.0, 100);
    mOpenLatency_ = &m.histogram("fs.open.latency", 0.0, 0.01, 50);
    mWriteLatency_ = &m.histogram("fs.write.latency", 0.0, 5.0, 100);
    mCloseLatency_ = &m.histogram("fs.close.latency", 0.0, 0.01, 50);
    mTokenAcquires_ = &m.counter("fs.token.acquires");
    mTokenRevocations_ = &m.counter("fs.token.revocations");
    mSizeTokenBounces_ = &m.counter("fs.token.size_bounces");
  }
}

ParallelFsSim::Directory& ParallelFsSim::directoryOf(const std::string& path) {
  return directories_.try_emplace(directoryName(path), sched_).first->second;
}

sim::Task<FileHandle> ParallelFsSim::create(int rank, std::string path,
                                            obs::OpTraceContext otc) {
  const sim::SimTime opStart = sched_.now();
  auto& dir = directoryOf(path);
  // Function-ship the request to the ION, then serialise on the directory.
  co_await sched_.delay(ion_.requestOverhead());
  co_await dir.queue.acquire();
  {
    sim::ScopedTokens hold(dir.queue, 1);
    // Directory-block contention grows with the pending-creator crowd even
    // in the healthy regime...
    const auto q = static_cast<double>(dir.queue.queueLength());
    sim::Duration cost =
        config_.createCost * (1.0 + q / config_.createQueueScale);
    // ...and beyond the cliff, every insert pays token-storm revocation
    // ping-pong on the directory blocks.
    if (dir.queue.queueLength() >
        static_cast<std::size_t>(config_.dirThrashThreshold)) {
      cost += rng_.lognormal(config_.dirThrashCost, config_.dirThrashSigma);
    }
    co_await sched_.delay(cost);
    ++dir.entries;
  }

  std::shared_ptr<FileState> state;
  {
    auto [it, inserted] = files_.try_emplace(path);
    if (inserted) {
      it->second = std::make_shared<FileState>(sched_);
      it->second->path = path;
      it->second->fileId = nextFileId_++;
    }
    state = it->second;
  }
  image_.file(path);  // touch
  ++creates_;
  otc.hop(obs::Hop::kFsCreate, opStart, sched_.now());
  if (obs_) {
    mCreateLatency_->add(sched_.now() - opStart);
    if (obs_->tracing(obs::Layer::kFilesystem))
      obs_->complete(obs::Layer::kFilesystem, rank, "create", opStart,
                     sched_.now());
  }
  co_return std::make_shared<OpenFile>(std::move(path), std::move(state));
}

sim::Task<FileHandle> ParallelFsSim::open(int rank, std::string path,
                                          obs::OpTraceContext otc) {
  const sim::SimTime opStart = sched_.now();
  auto it = files_.find(path);
  if (it == files_.end())
    throw std::runtime_error("fssim: open of nonexistent file " + path);
  auto state = it->second;
  // Inode token fetch through the file's metanode.
  co_await sched_.delay(ion_.requestOverhead());
  co_await state->metanode.acquire();
  {
    sim::ScopedTokens hold(state->metanode, 1);
    co_await sched_.delay(config_.openCost);
  }
  otc.hop(obs::Hop::kFsOpen, opStart, sched_.now());
  if (obs_) {
    mOpenLatency_->add(sched_.now() - opStart);
    if (obs_->tracing(obs::Layer::kFilesystem))
      obs_->complete(obs::Layer::kFilesystem, rank, "open", opStart,
                     sched_.now());
  }
  co_return std::make_shared<OpenFile>(std::move(path), std::move(state));
}

sim::Task<> ParallelFsSim::write(int rank, const FileHandle& fh,
                                 std::uint64_t offset, sim::Bytes len,
                                 std::span<const std::byte> data,
                                 obs::OpTraceContext otc) {
  if (!fh || !fh->state_) throw std::runtime_error("fssim: write on bad handle");
  if (len == 0) co_return;
  auto state = fh->state_;
  const sim::SimTime opStart = sched_.now();

  // 1. Byte-range token acquisition (GPFS personality only).
  if (config_.usesTokens) {
    const BlockRange blocks{offset / config_.blockSize,
                            (offset + len - 1) / config_.blockSize + 1};
    if (!state->tokens.holds(rank, blocks)) {
      const sim::SimTime tokenStart = sched_.now();
      co_await state->tokenServer.acquire();
      {
        sim::ScopedTokens hold(state->tokenServer, 1);
        // Ascending-writer heuristic: desire everything from here up, settle
        // for what conflicts least (see RangeTokenManager::acquire).
        const auto result = state->tokens.acquire(
            rank, blocks,
            BlockRange{blocks.lo, std::numeric_limits<std::uint64_t>::max()});
        if (obs_) {
          mTokenAcquires_->add();
          mTokenRevocations_->add(result.revocations);
        }
        co_await sched_.delay(
            config_.tokenOpCost +
            static_cast<double>(result.revocations) * config_.revocationCost);
      }
      // The whole negotiation — queueing on the token server plus the op
      // and revocation costs — is lock-manager wait, not data transfer;
      // blocked-time attribution separates it from the write proper.
      otc.hop(obs::Hop::kTokenWait, tokenStart, sched_.now());
      if (obs_)
        obs_->complete(obs::Layer::kFilesystem, rank, "token_wait", tokenStart,
                       sched_.now());
    }
  }

  // 2. Size-token bounce when extending EOF after another client did.
  if (offset + len > state->sizeCommitted) {
    const sim::SimTime sizeStart = sched_.now();
    co_await state->metanode.acquire();
    {
      sim::ScopedTokens hold(state->metanode, 1);
      if (config_.usesTokens && state->lastExtender != -1 &&
          state->lastExtender != rank) {
        if (obs_) mSizeTokenBounces_->add();
        co_await sched_.delay(config_.sizeTokenBounceCost);
      }
      state->lastExtender = rank;
      state->sizeCommitted = std::max(state->sizeCommitted, offset + len);
    }
    if (sched_.now() > sizeStart) {
      otc.hop(obs::Hop::kTokenWait, sizeStart, sched_.now());
      if (obs_)
        obs_->complete(obs::Layer::kFilesystem, rank, "token_wait", sizeStart,
                       sched_.now());
    }
  }

  // 3. Data path, block by block.
  co_await writeBlocks(rank, state, offset, len, otc);

  image_.file(state->path).recordWrite({offset, len}, data);
  ++writes_;
  if (obs_) {
    mWriteLatency_->add(sched_.now() - opStart);
    if (obs_->tracing(obs::Layer::kFilesystem))
      obs_->completeBytes(obs::Layer::kFilesystem, rank, "write", opStart,
                          sched_.now(), len);
  }
}

sim::Task<> ParallelFsSim::writeBlocks(int rank,
                                       std::shared_ptr<FileState> state,
                                       std::uint64_t offset, sim::Bytes len,
                                       obs::OpTraceContext otc) {
  // Stream identity: this client writing this file. Sequential per-client
  // block writes (writeBehindDepth == 1 models GPFS-over-ciod behaviour
  // observed on BG/P: each 4 MiB block is shipped and acknowledged in turn).
  const stor::StreamId stream =
      state->fileId * 1000003ULL + static_cast<std::uint64_t>(rank);
  std::uint64_t cursor = offset;
  const std::uint64_t end = offset + len;
  while (cursor < end) {
    const std::uint64_t block = cursor / config_.blockSize;
    const std::uint64_t blockEnd = (block + 1) * config_.blockSize;
    const sim::Bytes chunk = std::min<std::uint64_t>(end, blockEnd) - cursor;
    const int server = serverOfBlock(*state, block);
    co_await ion_.forward(rank, chunk, otc);
    co_await fabric_.write(server, stream, chunk,
                           config_.writeStreamBandwidth, otc);
    cursor += chunk;
  }
}

sim::Task<> ParallelFsSim::read(int rank, const FileHandle& fh,
                                std::uint64_t offset, sim::Bytes len,
                                obs::OpTraceContext otc) {
  if (!fh || !fh->state_) throw std::runtime_error("fssim: read on bad handle");
  auto state = fh->state_;
  const stor::StreamId stream =
      state->fileId * 1000003ULL + static_cast<std::uint64_t>(rank);
  std::uint64_t cursor = offset;
  const std::uint64_t end = offset + len;
  while (cursor < end) {
    const std::uint64_t block = cursor / config_.blockSize;
    const std::uint64_t blockEnd = (block + 1) * config_.blockSize;
    const sim::Bytes chunk = std::min<std::uint64_t>(end, blockEnd) - cursor;
    const int server = serverOfBlock(*state, block);
    co_await fabric_.read(server, stream, chunk, config_.readStreamBandwidth,
                          otc);
    co_await ion_.forward(rank, chunk, otc);  // data flows down to the pset
    cursor += chunk;
  }
}

sim::Task<> ParallelFsSim::close(int rank, const FileHandle& fh,
                                 obs::OpTraceContext otc) {
  if (!fh || !fh->state_) co_return;
  auto state = fh->state_;
  const sim::SimTime opStart = sched_.now();
  if (config_.usesTokens) state->tokens.releaseClient(rank);
  co_await state->metanode.acquire();
  {
    sim::ScopedTokens hold(state->metanode, 1);
    co_await sched_.delay(config_.closeCost);
  }
  otc.hop(obs::Hop::kFsClose, opStart, sched_.now());
  if (obs_) {
    mCloseLatency_->add(sched_.now() - opStart);
    if (obs_->tracing(obs::Layer::kFilesystem))
      obs_->complete(obs::Layer::kFilesystem, rank, "close", opStart,
                     sched_.now());
  }
}

int ParallelFsSim::serverOfBlock(const FileState& fs,
                                 std::uint64_t blockIndex) const {
  // Round-robin striping across all servers, rotated per file.
  const auto servers = static_cast<std::uint64_t>(fabric_.numServers());
  return static_cast<int>((fs.fileId * 7919 + blockIndex) % servers);
}

std::uint64_t ParallelFsSim::totalRevocations() const {
  std::uint64_t total = 0;
  for (const auto& [path, state] : files_)
    total += state->tokens.totalRevocations();
  return total;
}

}  // namespace bgckpt::fs
