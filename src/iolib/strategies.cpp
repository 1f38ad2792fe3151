#include "iolib/strategies.hpp"

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>

#include "iolib/campaign.hpp"
#include "iolib/layout.hpp"
#include "obs/obs.hpp"

namespace bgckpt::iolib {

namespace {

constexpr int kPackageTag = 77;

using mpi::Comm;
using mpi::Message;
using sim::Task;

std::span<const std::byte> slice(const std::vector<std::byte>& v,
                                 std::uint64_t off, std::uint64_t len) {
  return std::span<const std::byte>(v.data() + off, len);
}

/// Field `f` of a rank's package (its fields concatenated).
std::span<const std::byte> fieldOf(const std::vector<std::byte>& package,
                                   const CheckpointSpec& spec, int f) {
  return slice(package,
               static_cast<std::uint64_t>(f) * spec.fieldBytesPerRank,
               spec.fieldBytesPerRank);
}

/// One traced I/O op of a rank: a kIo span for the obs sinks and an
/// optrace request, both opened at construction and closed when the handle
/// leaves scope, which is the op's completion instant.
class TracedOp {
 public:
  TracedOp(SimStack& stack, int rank, const char* name, std::uint64_t offset,
           sim::Bytes bytes)
      : stack_(stack), rank_(rank), name_(name), bytes_(bytes),
        start_(stack.sched.now()),
        trace_(obs::mintOpTrace(stack.obs.opTracer(), rank, name, offset,
                                bytes, start_)) {}
  /// The kIo span alone, for an op whose bytes ride another request (the
  /// rbIO ops, which the writer's commit request covers end to end).
  TracedOp(SimStack& stack, int rank, const char* name, sim::Bytes bytes)
      : stack_(stack), rank_(rank), name_(name), bytes_(bytes),
        start_(stack.sched.now()) {}
  TracedOp(const TracedOp&) = delete;
  TracedOp& operator=(const TracedOp&) = delete;
  ~TracedOp() {
    const sim::SimTime end = stack_.sched.now();
    trace_.complete(end);
    stack_.obs.completeBytes(obs::Layer::kIo, rank_, name_, start_, end,
                             bytes_);
  }

  const obs::OpTraceContext& trace() const { return trace_; }

 private:
  SimStack& stack_;
  int rank_;
  const char* name_;
  sim::Bytes bytes_;
  sim::SimTime start_;
  obs::OpTraceContext trace_;
};

/// One run of the rank program: every rank computes `run.steps` steps and
/// checkpoints after every `run.checkpointEvery`-th. A lone checkpoint is
/// the one-step, no-compute run.
struct RunState {
  RunState(SimStack& s, const CheckpointSpec& spec, const CampaignConfig& cfg)
      : stack(&s),
        run(cfg),
        plan(s.rt.numRanks(), cfg.strategy.kind, cfg.strategy.nf,
             cfg.strategy.groupSize),
        perRank(static_cast<std::size_t>(s.rt.numRanks()), 0.0) {
    if (cfg.steps < 1 || cfg.checkpointEvery < 1)
      throw std::invalid_argument("campaign needs positive steps and cadence");
    for (int k = 0; k < cfg.steps / cfg.checkpointEvery; ++k) {
      gens.push_back(spec);
      gens.back().step = spec.step + k;
    }
  }

  SimStack* stack;
  CampaignConfig run;
  CheckpointPlan plan;
  /// Checkpoint generation k writes step spec.step + k.
  std::vector<CheckpointSpec> gens;
  std::vector<double> perRank;  // coordinated start to the rank's last op
  double maxIsend = 0;          // slowest rbIO worker handoff
};

/// Generations never mix at an rbIO writer: each has its own message tag.
int packageTag(int gen) { return kPackageTag + 1000 * gen; }

// ---------------------------------------------------------------- 1PFPP --

Task<> run1Pfpp(Comm world, RunState& st, int gen) {
  SimStack& stack = *st.stack;
  const auto& spec = st.gens[static_cast<std::size_t>(gen)];
  const int rank = world.rank();
  const int client = world.globalRank(rank);
  const int part = st.plan.partOf(rank);
  GroupFileLayout layout(spec, st.plan.ranksPerPart());

  // OS and network skew randomises the order in which ranks reach the
  // metadata service — this is what turns the create queue into the
  // scattered per-rank times of Fig. 9.
  {
    sim::RngStream arrival(stack.seed, "1pfpp-arrival",
                           static_cast<std::uint64_t>(rank));
    co_await stack.sched.delay(arrival.uniform(0.0, 0.05));
  }

  std::vector<std::byte> header, payload;
  if (spec.carryPayload) {
    header = makeHeaderPayload(spec, part);
    payload = makeRankPayload(spec, rank);
  }

  // Optional single-file-per-directory variant: each rank creates in its
  // own directory, so creates no longer serialise on one directory.
  const std::string path =
      st.run.strategy.onePfppPrivateDirs
          ? privateDirPath(spec.directory, spec.step, rank)
          : partPath(spec.directory, spec.step, part);
  fs::FileHandle fh;
  {
    TracedOp op(stack, rank, "create", 0, 0);
    fh = co_await stack.fsys.create(client, path, op.trace());
  }
  {
    TracedOp op(stack, rank, "write", 0, spec.headerBytes);
    co_await stack.fsys.write(
        client, fh, 0, spec.headerBytes,
        spec.carryPayload ? std::span<const std::byte>(header)
                          : std::span<const std::byte>(),
        op.trace());
  }
  for (int f = 0; f < spec.numFields; ++f) {
    TracedOp op(stack, rank, "write",
                layout.fieldOffset(f, st.plan.slotOf(rank)),
                spec.fieldBytesPerRank);
    co_await stack.fsys.write(
        client, fh, layout.fieldOffset(f, st.plan.slotOf(rank)),
        spec.fieldBytesPerRank,
        spec.carryPayload ? fieldOf(payload, spec, f)
                          : std::span<const std::byte>(),
        op.trace());
  }
  TracedOp op(stack, rank, "close", 0, 0);
  co_await stack.fsys.close(client, fh, op.trace());
}

// ----------------------------------------------------------------- coIO --

Task<> runCoIo(Comm world, RunState& st, int gen) {
  SimStack& stack = *st.stack;
  const auto& spec = st.gens[static_cast<std::size_t>(gen)];
  const int rank = world.rank();
  const int part = st.plan.partOf(rank);

  Comm sub = co_await world.split(part, rank);
  GroupFileLayout layout(spec, st.plan.ranksPerPart());

  std::vector<std::byte> header, payload;
  if (spec.carryPayload) {
    header = makeHeaderPayload(spec, part);
    payload = makeRankPayload(spec, world.globalRank(rank));
  }

  io::MpiFile file = co_await io::MpiFile::open(
      sub, stack.fsys, partPath(spec.directory, spec.step, part),
      st.run.strategy.hints);

  // Header round: group-local rank 0 contributes the master header.
  {
    const bool isRoot = sub.rank() == 0;
    TracedOp op(stack, rank, "write", 0, isRoot ? spec.headerBytes : 0);
    co_await file.writeAtAll(0, isRoot ? spec.headerBytes : 0,
                             (isRoot && spec.carryPayload)
                                 ? std::span<const std::byte>(header)
                                 : std::span<const std::byte>(),
                             op.trace());
  }

  // One collective round per field, committed in file order.
  for (int f = 0; f < spec.numFields; ++f) {
    TracedOp op(stack, rank, "write",
                layout.fieldOffset(f, st.plan.slotOf(rank)),
                spec.fieldBytesPerRank);
    co_await file.writeAtAll(
        layout.fieldOffset(f, st.plan.slotOf(rank)), spec.fieldBytesPerRank,
        spec.carryPayload ? fieldOf(payload, spec, f)
                          : std::span<const std::byte>(),
        op.trace());
  }

  TracedOp op(stack, rank, "close", 0, 0);
  co_await file.close(op.trace());
}

// ----------------------------------------------------------------- rbIO --

Task<> rbIoWorker(Comm world, RunState& st, int gen) {
  auto& sched = st.stack->sched;
  auto* obs = &st.stack->obs;
  const auto& spec = st.gens[static_cast<std::size_t>(gen)];
  const int rank = world.rank();

  Message package;
  package.size = spec.bytesPerRank();
  package.meta = static_cast<std::uint64_t>(rank);
  if (spec.carryPayload)
    package.payload = std::make_shared<const std::vector<std::byte>>(
        makeRankPayload(spec, world.globalRank(rank)));
  // The handoff request rides the package to the writer and is completed by
  // the cascade when the writer's aggregate commit lands — its end-to-end
  // latency is "rank write to DDN commit", not just the isend.
  package.trace = obs::mintOpTrace(
      obs->opTracer(), rank, "handoff",
      static_cast<std::uint64_t>(rank) * spec.bytesPerRank(),
      spec.bytesPerRank(), sched.now());

  // The worker's entire blocking I/O cost: one nonblocking send.
  obs->begin(obs::Layer::kIo, rank, "handoff", sched.now());
  const double t0 = sched.now();
  {
    TracedOp op(*st.stack, rank, "send", spec.bytesPerRank());
    mpi::Request req = co_await world.isend(
        st.plan.writerOf(rank), packageTag(gen), std::move(package));
    (void)req;  // fire and forget: the writer's receive loop bounds delivery
  }
  st.maxIsend = std::max(st.maxIsend, sched.now() - t0);
  obs->end(obs::Layer::kIo, rank, "handoff", sched.now());
}

Task<> rbIoWriter(Comm world, Comm writerComm, RunState& st, int gen) {
  auto& fsys = st.stack->fsys;
  auto& sched = st.stack->sched;
  auto* obs = &st.stack->obs;
  const auto& spec = st.gens[static_cast<std::size_t>(gen)];
  const int rank = world.rank();
  const int client = world.globalRank(rank);
  const int part = st.plan.partOf(rank);
  const int g = st.plan.groupSize();

  // The writer's aggregate request: covers recv + reorder + commit, with
  // the group's handoff requests linked as lineage children (64:1 fan-in).
  // The group's bytes start at its writer's.
  auto* tracer = obs->opTracer();
  const sim::Bytes groupBytes =
      static_cast<sim::Bytes>(g) * spec.bytesPerRank();
  auto commitOtc = obs::mintOpTrace(
      tracer, rank, "commit",
      static_cast<std::uint64_t>(rank) * spec.bytesPerRank(), groupBytes,
      sched.now());
  // The writer's own block never crosses the network but is still one of
  // the 64 merged inputs; minting it keeps the fan-in count honest.
  commitOtc.link(obs::mintOpTrace(
      tracer, rank, "handoff",
      static_cast<std::uint64_t>(rank) * spec.bytesPerRank(),
      spec.bytesPerRank(), sched.now()));
  const sim::SimTime recvStart = sched.now();

  // Gather the group's packages (the writer's own data needs no send).
  std::map<int, std::shared_ptr<const std::vector<std::byte>>> packages;
  if (spec.carryPayload)
    packages[rank] = std::make_shared<const std::vector<std::byte>>(
        makeRankPayload(spec, world.globalRank(rank)));
  obs->begin(obs::Layer::kIo, rank, "aggregate", sched.now());
  {
    TracedOp op(*st.stack, rank, "recv",
                static_cast<sim::Bytes>(g - 1) * spec.bytesPerRank());
    for (int i = 1; i < g; ++i) {
      Message msg = co_await world.recv(mpi::kAnySource, packageTag(gen));
      commitOtc.link(msg.trace);
      if (spec.carryPayload)
        packages[static_cast<int>(msg.meta)] = msg.payload;
    }
  }

  // Reorder the group's blocks into field-major file order (a local copy).
  co_await sched.delay(sim::transferTime(
      groupBytes, world.machine().compute().memoryBandwidth));
  commitOtc.hop(obs::Hop::kHandoffRecv, recvStart, sched.now(), groupBytes);

  // Assemble real file content when carrying payloads.
  const bool collective = st.plan.writersCommitCollectively();
  GroupFileLayout partLayout(spec, st.plan.ranksPerPart());
  std::vector<std::byte> fileBytes;
  if (spec.carryPayload && !collective) {
    fileBytes.resize(partLayout.fileBytes());
    auto header = makeHeaderPayload(spec, part);
    std::copy(header.begin(), header.end(), fileBytes.begin());
    for (int f = 0; f < spec.numFields; ++f)
      for (int member : st.plan.groupOf(rank))
        std::ranges::copy(fieldOf(*packages.at(member), spec, f),
                          fileBytes.begin() +
                              static_cast<std::ptrdiff_t>(
                                  partLayout.fieldOffset(
                                      f, st.plan.slotOf(member))));
  }
  obs->end(obs::Layer::kIo, rank, "aggregate", sched.now());

  obs->begin(obs::Layer::kIo, rank, "commit", sched.now());
  if (!collective) {
    // nf == ng: each writer owns one file; MPI_File_write_at semantics on
    // MPI_COMM_SELF, realised directly on the filesystem. The writer's
    // buffer lets it batch multiple fields per flush.
    const std::string path = partPath(spec.directory, spec.step, part);
    fs::FileHandle fh;
    {
      TracedOp op(*st.stack, rank, "create", 0);
      fh = co_await fsys.create(client, path, commitOtc);
    }

    const sim::Bytes total = partLayout.fileBytes();
    std::uint64_t cursor = 0;
    while (cursor < total) {
      const sim::Bytes chunk =
          std::min<sim::Bytes>(st.run.strategy.writerBuffer, total - cursor);
      {
        TracedOp op(*st.stack, rank, "write", chunk);
        co_await fsys.write(client, fh, cursor, chunk,
                            spec.carryPayload
                                ? slice(fileBytes, cursor, chunk)
                                : std::span<const std::byte>(),
                            commitOtc);
      }
      cursor += chunk;
    }

    TracedOp op(*st.stack, rank, "close", 0);
    co_await fsys.close(client, fh, commitOtc);
  } else {
    // nf == 1: writers jointly commit one shared file with collective
    // nonblocking writes; each field must land before the next starts.
    io::MpiFile file = co_await io::MpiFile::open(
        writerComm, fsys, partPath(spec.directory, spec.step, part),
        st.run.strategy.hints, commitOtc);
    std::vector<std::byte> header;
    if (spec.carryPayload) header = makeHeaderPayload(spec, part);
    {
      const bool isRoot = writerComm.rank() == 0;
      TracedOp op(*st.stack, rank, "write", isRoot ? spec.headerBytes : 0);
      co_await file.writeAtAll(0, isRoot ? spec.headerBytes : 0,
                               (isRoot && spec.carryPayload)
                                   ? std::span<const std::byte>(header)
                                   : std::span<const std::byte>(),
                               commitOtc);
    }
    std::vector<std::byte> section;
    for (int f = 0; f < spec.numFields; ++f) {
      const sim::Bytes sectionBytes =
          static_cast<sim::Bytes>(g) * spec.fieldBytesPerRank;
      if (spec.carryPayload) {
        section.clear();
        for (int member : st.plan.groupOf(rank))
          std::ranges::copy(fieldOf(*packages.at(member), spec, f),
                            std::back_inserter(section));
      }
      TracedOp op(*st.stack, rank, "write", sectionBytes);
      co_await file.writeAtAll(
          partLayout.fieldOffset(f, st.plan.slotOf(rank)), sectionBytes,
          spec.carryPayload ? std::span<const std::byte>(section)
                            : std::span<const std::byte>(),
          commitOtc);
    }
    TracedOp op(*st.stack, rank, "close", 0);
    co_await file.close(commitOtc);
  }
  obs->end(obs::Layer::kIo, rank, "commit", sched.now());
  // Completes the whole lineage: the 63 handed-off blocks (plus the
  // writer's own) end their journey the instant the aggregate commits.
  commitOtc.complete(sched.now());
}

// --------------------------------------------------------- rank program --

Task<> rankProgram(Comm world, RunState& st) {
  auto& sched = world.scheduler();
  const int rank = world.rank();
  const bool rbIo = st.run.strategy.kind == StrategyKind::kRbIo;
  const bool writer = rbIo && st.plan.isWriter(rank);

  // rbIO nf=1 needs a writers-only communicator; form it outside the timed
  // region (it is a one-time setup cost in the application).
  Comm writerComm;
  if (rbIo) writerComm = co_await world.split(writer ? 0 : 1, rank);

  // Coordinated start.
  co_await world.barrier();
  const double start = sched.now();
  int gen = 0;
  for (int step = 1; step <= st.run.steps; ++step) {
    // rbIO writers are dedicated I/O ranks: they drain one generation
    // after another, concurrent with the workers' computation.
    if (!writer && st.run.computeStepSeconds > 0)
      co_await sched.delay(st.run.computeStepSeconds);
    if (step % st.run.checkpointEvery != 0) continue;
    st.stack->obs.begin(obs::Layer::kApp, rank, "checkpoint", sched.now());
    switch (st.run.strategy.kind) {
      case StrategyKind::k1Pfpp:
        co_await run1Pfpp(world, st, gen);
        break;
      case StrategyKind::kCoIo:
        co_await runCoIo(world, st, gen);
        break;
      case StrategyKind::kRbIo:
        if (writer)
          co_await rbIoWriter(world, writerComm, st, gen);
        else
          co_await rbIoWorker(world, st, gen);
        break;
    }
    st.stack->obs.end(obs::Layer::kApp, rank, "checkpoint", sched.now());
    ++gen;
  }
  st.perRank[static_cast<std::size_t>(rank)] = sched.now() - start;
}

/// Run the rank program on every rank; returns the slowest rank's time.
double runProgram(RunState& st, const char* what) {
  return runRanks(*st.stack, what,
                  [&st](Comm world) { return rankProgram(world, st); },
                  st.perRank);
}

}  // namespace

CheckpointResult runCheckpoint(SimStack& stack, const CheckpointSpec& spec,
                               const StrategyConfig& cfg) {
  RunState st(stack, spec, CampaignConfig{1, 1, 0.0, cfg});
  const CheckpointPlan& plan = st.plan;
  const int np = plan.numRanks();

  CheckpointResult result;
  result.makespan = runProgram(st, "checkpoint run");
  result.perRankTime = st.perRank;
  result.logicalBytes =
      static_cast<sim::Bytes>(np) * spec.bytesPerRank() +
      static_cast<sim::Bytes>(plan.numParts()) * spec.headerBytes;
  result.bandwidth =
      static_cast<double>(result.logicalBytes) / result.makespan;
  if (cfg.kind == StrategyKind::kRbIo) {
    double workerMax = 0, writerMax = 0;
    for (int r = 0; r < np; ++r) {
      double& slowest = plan.isWriter(r) ? writerMax : workerMax;
      slowest = std::max(slowest, st.perRank[static_cast<std::size_t>(r)]);
    }
    result.numWriters = plan.numWriters();
    result.workerMakespan = workerMax;
    result.writerMakespan = writerMax;
    result.maxIsendSeconds = st.maxIsend;
    const auto workerBytes =
        static_cast<double>(np - plan.numWriters()) *
        static_cast<double>(spec.bytesPerRank());
    result.perceivedBandwidth =
        st.maxIsend > 0 ? workerBytes / st.maxIsend : 0;
  }
  return result;
}

CampaignResult runCampaign(SimStack& stack, const CheckpointSpec& spec,
                           const CampaignConfig& cfg) {
  CheckpointSpec first = spec;
  first.step = 0;  // a campaign's checkpoints are steps s0, s1, ...
  RunState st(stack, first, cfg);

  CampaignResult result;
  result.totalSeconds = runProgram(st, "campaign");
  result.computeSeconds = cfg.steps * cfg.computeStepSeconds;
  result.ioOverheadSeconds = result.totalSeconds - result.computeSeconds;
  result.checkpointsTaken = static_cast<int>(st.gens.size());
  return result;
}

}  // namespace bgckpt::iolib
