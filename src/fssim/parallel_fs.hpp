// The parallel filesystem engine (GPFS and PVFS personalities).
//
// Simulates the full client-visible path of a file operation on Intrepid:
//
//   compute node --(function shipping)--> ION --(10GigE)--> file server
//        |                                                    |
//   byte-range tokens (GPFS only)                      DDN disk array
//
// Timing mechanisms, each tied to a phenomenon in the paper:
//  * Directory-insert thrash: creates in one directory serialise; while the
//    pending-creator queue exceeds a threshold, every create pays a heavy
//    token-storm cost. This is the 1PFPP collapse (Figs. 5/6/9).
//  * Byte-range tokens: conflicting writes pay revocations; aligned,
//    disjoint file domains avoid them (ROMIO's alignment optimisation).
//  * Size-token bounce: multiple clients extending one file's EOF bounce
//    the metanode's size token (why nf=1 underperforms for coIO and rbIO).
//  * Per-stream service rate: a server serves each client stream at a
//    modest rate and a few streams in parallel, so aggregate bandwidth
//    needs enough concurrent writers (left side of Fig. 8).
//  * DDN stream thrash: too many concurrent streams degrade the arrays
//    (right side of Fig. 8, coIO's 64K drop).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "fssim/image.hpp"
#include "fssim/token.hpp"
#include "machine/bgp.hpp"
#include "netsim/ion.hpp"
#include "obs/optrace.hpp"
#include "obs/obs.hpp"
#include "simcore/random.hpp"
#include "simcore/resource.hpp"
#include "simcore/scheduler.hpp"
#include "storsim/fabric.hpp"

namespace bgckpt::fs {

struct FsConfig {
  std::string name = "gpfs";
  sim::Bytes blockSize = 4 * sim::MiB;
  /// Per-stream service rate at one server (GPFS client/session ceiling).
  sim::Bandwidth writeStreamBandwidth = 40e6;
  sim::Bandwidth readStreamBandwidth = 45e6;
  /// Streams one server services concurrently.
  int serverConcurrency = 4;

  // --- locking (zeroed for the PVFS personality) ---
  bool usesTokens = true;
  sim::Duration tokenOpCost = 80e-6;
  sim::Duration revocationCost = 1.0e-3;
  sim::Duration sizeTokenBounceCost = 0.3e-3;

  // --- metadata ---
  sim::Duration createCost = 0.3e-3;
  sim::Duration openCost = 60e-6;
  sim::Duration closeCost = 150e-6;
  /// Creates get linearly slower with directory contention even below the
  /// thrash cliff: cost = createCost * (1 + pendingCreators / this).
  double createQueueScale = 1200;
  /// Pending creators in one directory beyond which creates thrash.
  int dirThrashThreshold = 5000;
  /// Median extra cost per create while thrashing (lognormal).
  sim::Duration dirThrashCost = 27e-3;
  double dirThrashSigma = 0.5;

  /// Client write-behind depth (1 = strictly synchronous block writes).
  int writeBehindDepth = 1;

  bool operator==(const FsConfig&) const = default;
};

/// Intrepid GPFS defaults (values above).
FsConfig gpfsConfig();

/// Intrepid PVFS: lock-free, no client cache, higher per-stream rate.
FsConfig pvfsConfig();

namespace detail {
struct FileState;  // defined in parallel_fs.cpp
}

/// Opaque per-open-file handle returned by open/create.
class OpenFile {
 public:
  OpenFile(std::string path, std::shared_ptr<detail::FileState> state)
      : path_(std::move(path)), state_(std::move(state)) {}
  const std::string& path() const { return path_; }

 private:
  friend class ParallelFsSim;
  std::string path_;
  std::shared_ptr<detail::FileState> state_;
};
using FileHandle = std::shared_ptr<OpenFile>;

class ParallelFsSim {
 public:
  ParallelFsSim(sim::Scheduler& sched, const machine::Machine& mach,
                net::IonForwarding& ion, stor::StorageFabric& fabric,
                std::uint64_t seed, FsConfig config,
                obs::Observability* obs = nullptr);

  /// Create a new file (directory insert + inode init). A live `otc`
  /// (propagated by value from the issuing strategy) receives the metadata,
  /// token-wait, and downstream ION/storage hop spans on every operation.
  sim::Task<FileHandle> create(int rank, std::string path,
                               obs::OpTraceContext otc = {});
  /// Open an existing file.
  sim::Task<FileHandle> open(int rank, std::string path,
                             obs::OpTraceContext otc = {});
  /// Write [offset, offset+len); optional payload records real content.
  sim::Task<> write(int rank, const FileHandle& fh, std::uint64_t offset,
                    sim::Bytes len, std::span<const std::byte> data = {},
                    obs::OpTraceContext otc = {});
  /// Read [offset, offset+len).
  sim::Task<> read(int rank, const FileHandle& fh, std::uint64_t offset,
                   sim::Bytes len, obs::OpTraceContext otc = {});
  /// Close: release tokens, commit metadata.
  sim::Task<> close(int rank, const FileHandle& fh,
                    obs::OpTraceContext otc = {});

  const FsConfig& config() const { return config_; }
  FsImage& image() { return image_; }
  const FsImage& image() const { return image_; }

  /// Aggregate counters for verification and Darshan-style reporting.
  std::uint64_t totalRevocations() const;
  std::uint64_t createsIssued() const { return creates_; }
  std::uint64_t writesIssued() const { return writes_; }

 private:
  struct Directory {
    explicit Directory(sim::Scheduler& sched)
        : queue(sched, 1, "fs-dir-queue") {}
    sim::Resource queue;
    std::uint64_t entries = 0;
  };

  Directory& directoryOf(const std::string& path);
  int serverOfBlock(const detail::FileState& fs,
                    std::uint64_t blockIndex) const;
  sim::Task<> writeBlocks(int rank, std::shared_ptr<detail::FileState> state,
                          std::uint64_t offset, sim::Bytes len,
                          obs::OpTraceContext otc);

  sim::Scheduler& sched_;
  const machine::Machine& mach_;
  net::IonForwarding& ion_;
  stor::StorageFabric& fabric_;
  obs::Observability* obs_;
  sim::RngStream rng_;
  FsConfig config_;
  FsImage image_;
  std::unordered_map<std::string, Directory> directories_;
  std::unordered_map<std::string, std::shared_ptr<detail::FileState>> files_;
  std::uint64_t nextFileId_ = 1;
  std::uint64_t creates_ = 0;
  std::uint64_t writes_ = 0;
  // Metric handles, resolved once at construction (null when unobserved).
  obs::Histogram* mCreateLatency_ = nullptr;
  obs::Histogram* mOpenLatency_ = nullptr;
  obs::Histogram* mWriteLatency_ = nullptr;
  obs::Histogram* mCloseLatency_ = nullptr;
  obs::Counter* mTokenRevocations_ = nullptr;
  obs::Counter* mTokenAcquires_ = nullptr;
  obs::Counter* mSizeTokenBounces_ = nullptr;
};

}  // namespace bgckpt::fs
