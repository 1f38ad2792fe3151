#include "iolib/restart.hpp"

#include <stdexcept>

#include "iolib/layout.hpp"

namespace bgckpt::iolib {

namespace {

using mpi::Comm;
using sim::Task;

constexpr int kScatterTag = 88;

struct RestartState {
  CheckpointSpec spec;
  RestartConfig cfg;
  CheckpointPlan plan;
  SimStack* stack = nullptr;
  std::vector<double> perRank;
};

Task<> directRead(Comm world, RestartState& st) {
  auto& fsys = st.stack->fsys;
  const int rank = world.rank();
  const int client = world.globalRank(rank);
  const int slot = st.plan.slotOf(rank);
  GroupFileLayout layout(st.spec, st.plan.ranksPerPart());

  auto fh = co_await fsys.open(
      client, partPath(st.spec.directory, st.spec.step, st.plan.partOf(rank)));
  // Header (every reader needs the offset table), then its field blocks.
  co_await fsys.read(client, fh, 0, st.spec.headerBytes);
  for (int f = 0; f < st.spec.numFields; ++f)
    co_await fsys.read(client, fh, layout.fieldOffset(f, slot),
                       st.spec.fieldBytesPerRank);
  co_await fsys.close(client, fh);
}

// A part's leader is the plan's writer of its one group.
Task<> leaderScatter(Comm world, RestartState& st) {
  auto& fsys = st.stack->fsys;
  const int rank = world.rank();

  if (st.plan.isWriter(rank)) {
    const int client = world.globalRank(rank);
    const sim::Bytes fileBytes =
        GroupFileLayout(st.spec, st.plan.ranksPerPart()).fileBytes();
    auto fh = co_await fsys.open(
        client,
        partPath(st.spec.directory, st.spec.step, st.plan.partOf(rank)));
    co_await fsys.read(client, fh, 0, fileBytes);  // sequential
    co_await fsys.close(client, fh);
    // Scatter each other member's package over the torus.
    for (int member : st.plan.groupOf(rank)) {
      if (member == rank) continue;
      mpi::Request req =
          co_await world.isend(member, kScatterTag,
                               mpi::Message::ofSize(st.spec.bytesPerRank()));
      (void)req;  // receivers bound completion
    }
  } else {
    co_await world.recv(st.plan.writerOf(rank), kScatterTag);
  }
}

Task<> rankProgram(Comm world, RestartState& st) {
  co_await world.barrier();
  const double start = world.scheduler().now();
  if (st.cfg.mode == RestartMode::kDirect)
    co_await directRead(world, st);
  else
    co_await leaderScatter(world, st);
  st.perRank[static_cast<std::size_t>(world.rank())] =
      world.scheduler().now() - start;
}

}  // namespace

RestartResult runRestart(SimStack& stack, const CheckpointSpec& spec,
                         const RestartConfig& cfg) {
  const int np = stack.rt.numRanks();
  // Parts of cfg.groupSize ranks, each with one leader: rbIO's nf=ng shape.
  RestartState st{spec, cfg,
                  CheckpointPlan(np, StrategyKind::kRbIo, 0, cfg.groupSize),
                  &stack, std::vector<double>(static_cast<std::size_t>(np))};
  for (int part = 0; part < st.plan.numParts(); ++part) {
    const auto path = partPath(spec.directory, spec.step, part);
    if (!stack.fsys.image().exists(path))
      throw std::runtime_error("restart: missing checkpoint part " + path);
  }

  RestartResult result;
  result.makespan = runRanks(
      stack, "restart run",
      [&st](Comm world) { return rankProgram(world, st); }, st.perRank);
  result.perRankTime = st.perRank;
  result.logicalBytes =
      static_cast<sim::Bytes>(np) * spec.bytesPerRank() +
      static_cast<sim::Bytes>(st.plan.numParts()) * spec.headerBytes;
  result.bandwidth =
      static_cast<double>(result.logicalBytes) / result.makespan;
  return result;
}

}  // namespace bgckpt::iolib
