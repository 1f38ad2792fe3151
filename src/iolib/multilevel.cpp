#include "iolib/multilevel.hpp"

#include <memory>
#include <stdexcept>

#include "iolib/strategies.hpp"

namespace bgckpt::iolib {

namespace {

using mpi::Comm;
using sim::Task;

constexpr int kPartnerTag = 99;

struct LocalState {
  const CheckpointSpec* spec = nullptr;
  const MultilevelConfig* cfg = nullptr;
  SimStack* stack = nullptr;
  // One RAM-disk channel per node, shared by its ranks.
  std::vector<std::unique_ptr<sim::Resource>> ramDisk;
  std::vector<double> perRank;
};

Task<> localCheckpointRank(Comm world, LocalState& ls) {
  auto& sched = world.scheduler();
  const auto& mach = world.machine();
  const int rank = world.rank();
  const sim::Bytes bytes = ls.spec->bytesPerRank();

  co_await world.barrier();
  const double t0 = sched.now();
  auto otc = obs::mintOpTrace(
      ls.stack->obs.opTracer(), rank, "local",
      static_cast<std::uint64_t>(rank) * bytes, bytes, sched.now());

  // Level 1a: serialise onto the node's RAM disk (shared device).
  const auto node = static_cast<std::size_t>(
      mach.nodeOfRank(world.globalRank(rank)));
  co_await ls.ramDisk[node]->acquire();
  {
    sim::ScopedTokens hold(*ls.ramDisk[node], 1);
    const sim::SimTime writeStart = sched.now();
    co_await sched.delay(ls.cfg->localLatency +
                         sim::transferTime(bytes, ls.cfg->localBandwidth));
    otc.hop(obs::Hop::kLocalWrite, writeStart, sched.now(), bytes);
  }

  // Level 1b: mirror to the +x torus neighbour's RAM disk.
  if (ls.cfg->partnerCopy) {
    const int ranksPerNode = mach.ranksPerNode();
    const int partner =
        (rank + ranksPerNode) % world.size();  // same core, next node
    mpi::Message mirror = mpi::Message::ofSize(bytes);
    mirror.trace = otc;  // the mirror hop joins this rank's waterfall
    mpi::Request req =
        co_await world.isend(partner, kPartnerTag, std::move(mirror));
    (void)req;
    // Receive the mirror destined for us and store it locally.
    co_await world.recv(mpi::kAnySource, kPartnerTag);
    co_await ls.ramDisk[node]->acquire();
    {
      sim::ScopedTokens hold(*ls.ramDisk[node], 1);
      const sim::SimTime mirrorStart = sched.now();
      co_await sched.delay(sim::transferTime(bytes, ls.cfg->localBandwidth));
      otc.hop(obs::Hop::kLocalWrite, mirrorStart, sched.now(), bytes);
    }
  }
  otc.complete(sched.now());
  ls.perRank[static_cast<std::size_t>(rank)] = sched.now() - t0;
}

}  // namespace

MultilevelResult runMultilevelCheckpoint(SimStack& stack,
                                         const CheckpointSpec& spec,
                                         const MultilevelConfig& cfg) {
  if (cfg.pfsEvery < 1)
    throw std::invalid_argument("pfsEvery must be >= 1");
  const int np = stack.rt.numRanks();

  // Level 1 (local [+partner]) pass.
  LocalState ls;
  ls.spec = &spec;
  ls.cfg = &cfg;
  ls.stack = &stack;
  ls.perRank.assign(static_cast<std::size_t>(np), 0.0);
  ls.ramDisk.reserve(static_cast<std::size_t>(stack.mach.numNodes()));
  for (int n = 0; n < stack.mach.numNodes(); ++n)
    ls.ramDisk.push_back(std::make_unique<sim::Resource>(stack.sched, 1, "ram-disk"));

  MultilevelResult result;
  result.localMakespan = runRanks(
      stack, "multilevel local pass",
      [&ls](Comm world) { return localCheckpointRank(world, ls); },
      ls.perRank);

  // Level 2: the periodic PFS drain with the configured paper strategy.
  CheckpointSpec pfsSpec = spec;
  pfsSpec.directory = spec.directory + "/pfs";
  const auto pfs = runCheckpoint(stack, pfsSpec, cfg.pfsStrategy);
  result.pfsMakespan = pfs.makespan;

  result.amortizedSeconds =
      ((cfg.pfsEvery - 1) * result.localMakespan +
       (result.localMakespan + result.pfsMakespan)) /
      cfg.pfsEvery;
  result.level1Speedup = result.pfsMakespan / result.localMakespan;
  result.amortizedSpeedup = result.pfsMakespan / result.amortizedSeconds;
  return result;
}

}  // namespace bgckpt::iolib
