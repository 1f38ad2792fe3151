// MPI-IO over the simulated filesystem (a ROMIO-like layer).
//
// Implements the pieces of ROMIO this study depends on:
//  * collective open with the *deferred open* optimisation (only the
//    aggregators open the file at filesystem level);
//  * independent writes (MPI_File_write_at);
//  * collective writes (MPI_File_write_at_all) with two-phase collective
//    buffering: gather everyone's extents, partition the aggregate region
//    into contiguous *file domains aligned to filesystem block boundaries*
//    (the BG/P lock-contention optimisation), exchange data to the
//    aggregators over the torus, and let each aggregator commit its domain
//    in cb_buffer_size chunks;
//  * the "bgp_nodes_pset" hint controlling how many ranks per pset act as
//    aggregators (default 8 per 256-rank VN pset = the 32:1 of the paper).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fssim/parallel_fs.hpp"
#include "mpisim/comm.hpp"

namespace bgckpt::io {

struct Hints {
  /// Aggregators per pset (BG/P "bgp_nodes_pset"). With 256 VN-mode ranks
  /// per pset, the default 8 yields the stock 32:1 ranks-per-aggregator.
  int bgpNodesPset = 8;
  /// Collective buffer size per aggregator.
  sim::Bytes cbBufferSize = 16 * sim::MiB;
  /// Align file domains to filesystem block boundaries.
  bool alignFileDomains = true;
  /// Only aggregators open the file at filesystem level.
  bool deferredOpen = true;

  bool operator==(const Hints&) const = default;
};

/// One rank's handle to a shared MPI file. Copyable (shares state).
class MpiFile {
 public:
  /// Collective: every rank of `comm` calls this together. Creates the file
  /// when absent (rank 0 performs the create).
  static sim::Task<MpiFile> open(mpi::Comm comm, fs::ParallelFsSim& fsys,
                                 std::string path, Hints hints = {},
                                 obs::OpTraceContext otc = {});

  /// Independent write at an explicit offset (MPI_File_write_at). A live
  /// `otc` (minted by the issuing strategy) rides by value through the
  /// filesystem, ION, and storage layers, collecting hop spans.
  sim::Task<> writeAt(std::uint64_t offset, sim::Bytes len,
                      std::span<const std::byte> data = {},
                      obs::OpTraceContext otc = {});

  /// Collective write (MPI_File_write_at_all_begin/_end pair). Every rank
  /// of the communicator participates; ranks with len == 0 contribute
  /// nothing but still synchronise. Each Phase-1 piece carries the
  /// contributor's `otc` over the torus; aggregators link the received
  /// contexts as lineage children of their own before committing.
  sim::Task<> writeAtAll(std::uint64_t offset, sim::Bytes len,
                         std::span<const std::byte> data = {},
                         obs::OpTraceContext otc = {});

  /// Independent read at an explicit offset.
  sim::Task<> readAt(std::uint64_t offset, sim::Bytes len,
                     obs::OpTraceContext otc = {});

  /// Collective close.
  sim::Task<> close(obs::OpTraceContext otc = {});

  bool isAggregator() const;
  int numAggregators() const;
  const std::string& path() const;

 private:
  struct Shared;
  MpiFile(mpi::Comm comm, fs::ParallelFsSim* fsys,
          std::shared_ptr<Shared> shared)
      : comm_(comm), fsys_(fsys), shared_(std::move(shared)) {}

  sim::Task<> ensureFsHandle(obs::OpTraceContext otc = {});
  int myFsClientId() const { return comm_.globalRank(comm_.rank()); }

  mpi::Comm comm_;
  fs::ParallelFsSim* fsys_ = nullptr;
  std::shared_ptr<Shared> shared_;
  fs::FileHandle fsHandle_;  // per-rank; lazily opened
  int round_ = 0;            // collective-write round counter (uniform)
};

/// The aggregator ranks ROMIO would choose on this communicator: spread
/// evenly so that no pset holds more than `bgpNodesPset` of them.
std::vector<int> chooseAggregators(const mpi::Comm& comm, const Hints& hints);

}  // namespace bgckpt::io
