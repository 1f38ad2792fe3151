// What an idle rank costs. Per-rank and per-node state (mailboxes, torus
// ports, Resources) must not allocate while empty, and building the MPI
// runtime plus the torus for 16K ranks must stay under a fixed per-rank byte
// budget, so a container member that quietly allocates on construction
// (a std::deque costs ~600 bytes empty) fails here.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "machine/bgp.hpp"
#include "mpisim/comm.hpp"
#include "netsim/torus.hpp"
#include "simcore/resource.hpp"

// Counts every operator new call and its bytes in this test binary; the
// other tests only gain two relaxed atomic increments.
namespace {
std::atomic<std::uint64_t> gAllocs{0};
std::atomic<std::uint64_t> gAllocBytes{0};
}  // namespace

// GCC flags free() inside a replacement operator delete as a mismatched
// pair; replacing the global allocator like this is explicitly allowed.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  gAllocs.fetch_add(1, std::memory_order_relaxed);
  gAllocBytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace bgckpt {
namespace {

struct Counted {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};

/// Heap allocations made, and bytes requested, while `fn` runs.
template <typename Fn>
Counted counted(Fn&& fn) {
  const std::uint64_t allocs0 = gAllocs.load(std::memory_order_relaxed);
  const std::uint64_t bytes0 = gAllocBytes.load(std::memory_order_relaxed);
  fn();
  return {gAllocs.load(std::memory_order_relaxed) - allocs0,
          gAllocBytes.load(std::memory_order_relaxed) - bytes0};
}

TEST(IdleCost, IdleResourceAllocatesNothing) {
  sim::Scheduler sched;
  const Counted c = counted([&sched] {
    sim::Resource res(sched, 4, "idle");
    sim::Mutex mu(sched);
  });
  EXPECT_EQ(c.allocs, 0u);
}

TEST(IdleCost, QueuedWaitersAllocateNothing) {
  // 500 processes park on a held Resource. Their spawns happen before the
  // count; parking them is then free of heap allocation.
  sim::Scheduler sched;
  sim::Resource res(sched, 1, "contended");
  auto holder = [](sim::Scheduler& s, sim::Resource& r) -> sim::Task<> {
    co_await r.acquire();
    co_await s.delay(1.0);
    r.release();
  };
  auto waiter = [](sim::Resource& r) -> sim::Task<> {
    co_await r.acquire();
    r.release();
  };
  sched.spawn(holder(sched, res));
  sched.runUntil(0.0);
  for (int i = 0; i < 500; ++i) sched.spawn(waiter(res));
  const Counted c = counted([&sched] { sched.runUntil(0.5); });
  EXPECT_EQ(res.queueLength(), 500u);
  EXPECT_EQ(c.allocs, 0u);
  sched.run();
  EXPECT_EQ(sched.liveRoots(), 0u);
}

/// Heap allocations of building (and dropping) a world communicator.
std::uint64_t runtimeAllocs(int ranks) {
  sim::Scheduler sched;
  const machine::Machine mach = machine::intrepidMachine(ranks);
  net::TorusNetwork torus(sched, mach);
  net::CollectiveNetwork coll(mach);
  return counted([&] { mpi::Runtime rt(sched, mach, torus, coll, 1); })
      .allocs;
}

TEST(IdleCost, IdleMailboxesAllocateNothing) {
  // A communicator's construction allocates a fixed handful of arrays,
  // none per rank: the count is the same at 256 and 16K ranks.
  const std::uint64_t small = runtimeAllocs(256);
  EXPECT_EQ(runtimeAllocs(16384), small);
  EXPECT_LE(small, 8u);
}

TEST(IdleCost, RuntimeAndTorusStayUnderPerRankByteBudget) {
  constexpr int kRanks = 16384;
  // Measured: 36 B/rank of mpisim (rank map + mailbox) and 30 B/rank of
  // torus ports (two 56-byte Resources per 4-rank node, in deque blocks).
  // The budget leaves room for a small member, not for another container
  // per rank.
  constexpr std::uint64_t kBudgetPerRank = 96;
  sim::Scheduler sched;
  const machine::Machine mach = machine::intrepidMachine(kRanks);
  net::CollectiveNetwork coll(mach);
  Counted torusCost;
  Counted mpiCost;
  {
    std::unique_ptr<net::TorusNetwork> torus;
    torusCost = counted([&] {
      torus = std::make_unique<net::TorusNetwork>(sched, mach);
    });
    mpiCost = counted([&] { mpi::Runtime rt(sched, mach, *torus, coll, 1); });
  }
  const std::uint64_t perRank = (torusCost.bytes + mpiCost.bytes) / kRanks;
  EXPECT_LE(perRank, kBudgetPerRank)
      << "torus " << torusCost.bytes / kRanks << " B/rank, mpisim "
      << mpiCost.bytes / kRanks << " B/rank";
  RecordProperty("torus_bytes_per_rank",
                 static_cast<int>(torusCost.bytes / kRanks));
  RecordProperty("mpisim_bytes_per_rank",
                 static_cast<int>(mpiCost.bytes / kRanks));
}

}  // namespace
}  // namespace bgckpt
