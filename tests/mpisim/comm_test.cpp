#include "mpisim/comm.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <utility>
#include <vector>

namespace bgckpt::mpi {
namespace {

using machine::Machine;
using machine::intrepidMachine;
using sim::MiB;
using sim::Scheduler;
using sim::Task;

// Full simulated-MPI stack on a small Intrepid partition.
struct Job {
  Scheduler sched;
  Machine mach;
  net::TorusNetwork torus;
  net::CollectiveNetwork coll;
  Runtime rt;

  explicit Job(int ranks = 256, std::uint64_t seed = 1)
      : mach(intrepidMachine(ranks)),
        torus(sched, mach),
        coll(mach),
        rt(sched, mach, torus, coll, seed) {}

  void run(std::function<Task<>(Comm)> program) {
    rt.spawnAll(std::move(program));
    sched.run();
    ASSERT_EQ(sched.liveRoots(), 0u) << "job deadlocked";
  }
};

TEST(MpiComm, WorldSizeAndRanks) {
  Job job(256);
  std::vector<int> seen;
  job.run([&seen](Comm comm) -> Task<> {
    EXPECT_EQ(comm.size(), 256);
    seen.push_back(comm.rank());
    co_return;
  });
  EXPECT_EQ(seen.size(), 256u);
  std::sort(seen.begin(), seen.end());
  for (int r = 0; r < 256; ++r) EXPECT_EQ(seen[static_cast<size_t>(r)], r);
}

TEST(MpiComm, SendRecvDeliversPayload) {
  Job job(256);
  std::vector<std::byte> got;
  job.run([&got](Comm comm) -> Task<> {
    if (comm.rank() == 0) {
      Message msg;
      msg.size = 4;
      msg.payload = std::make_shared<std::vector<std::byte>>(
          std::vector<std::byte>{std::byte{1}, std::byte{2}, std::byte{3},
                                 std::byte{4}});
      co_await comm.send(7, 42, std::move(msg));
    } else if (comm.rank() == 7) {
      Message msg = co_await comm.recv(0, 42);
      EXPECT_EQ(msg.source, 0);
      EXPECT_EQ(msg.tag, 42);
      got = *msg.payload;
    }
  });
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[3], std::byte{4});
}

TEST(MpiComm, RecvBeforeSendSuspends) {
  Job job(256);
  double recvTime = -1.0;
  job.run([&recvTime](Comm comm) -> Task<> {
    if (comm.rank() == 1) {
      Message m = co_await comm.recv(kAnySource, 5);
      recvTime = comm.scheduler().now();
      EXPECT_EQ(m.size, MiB);
    } else if (comm.rank() == 2) {
      co_await comm.scheduler().delay(0.5);
      co_await comm.send(1, 5, Message::ofSize(MiB));
    }
  });
  EXPECT_GT(recvTime, 0.5);
}

TEST(MpiComm, TagsMatchSelectively) {
  Job job(256);
  std::vector<int> order;
  job.run([&order](Comm comm) -> Task<> {
    if (comm.rank() == 0) {
      co_await comm.send(1, /*tag=*/10, Message::ofSize(100));
      co_await comm.send(1, /*tag=*/20, Message::ofSize(200));
    } else if (comm.rank() == 1) {
      // Receive tag 20 first even though tag 10 arrives first.
      Message m20 = co_await comm.recv(0, 20);
      order.push_back(m20.tag);
      Message m10 = co_await comm.recv(0, 10);
      order.push_back(m10.tag);
      EXPECT_EQ(m20.size, 200u);
      EXPECT_EQ(m10.size, 100u);
    }
  });
  EXPECT_EQ(order, (std::vector<int>{20, 10}));
}

TEST(MpiComm, AnySourceReceivesInArrivalOrder) {
  Job job(256);
  std::vector<int> sources;
  job.run([&sources](Comm comm) -> Task<> {
    if (comm.rank() == 0) {
      for (int i = 0; i < 3; ++i) {
        Message m = co_await comm.recv(kAnySource, 1);
        sources.push_back(m.source);
      }
    } else if (comm.rank() <= 3) {
      // Staggered arrivals: rank 1 at ~1s, rank 2 at ~2s, rank 3 at ~3s.
      co_await comm.scheduler().delay(static_cast<double>(comm.rank()));
      co_await comm.send(0, 1, Message::ofSize(64));
    }
  });
  EXPECT_EQ(sources, (std::vector<int>{1, 2, 3}));
}

TEST(MpiComm, ConcurrentReceivesMatchInPostingOrder) {
  // Six receives posted on rank 0 by tasks sharing its Comm, each with its
  // own (source, tag); messages arrive one per second afterwards. Where two
  // posted receives match a message, the earlier posted one wins, and a
  // match taken from the middle or the tail of the waiter list leaves the
  // others queued in order (a later receive still appends correctly).
  struct Got {
    int size;
    int source;
  };
  Job job(256);
  std::vector<int> wakeOrder;
  std::vector<Got> got(6, Got{-1, -1});
  auto receiver = [&wakeOrder, &got](Comm c, int id, int src,
                                     int tag) -> Task<> {
    Message m = co_await c.recv(src, tag);
    wakeOrder.push_back(id);
    got[static_cast<std::size_t>(id)] = {static_cast<int>(m.size), m.source};
  };
  auto sendAt = [](Comm c, double t, int tag, sim::Bytes size) -> Task<> {
    co_await c.scheduler().delay(t - c.scheduler().now());
    co_await c.send(0, tag, Message::ofSize(size));
  };
  job.run([&receiver, &sendAt](Comm comm) -> Task<> {
    auto& sched = comm.scheduler();
    switch (comm.rank()) {
      case 0:
        sched.spawn(receiver(comm, 0, 1, 5));
        sched.spawn(receiver(comm, 1, 2, 5));
        sched.spawn(receiver(comm, 2, kAnySource, 7));
        sched.spawn(receiver(comm, 3, 2, 7));
        sched.spawn(receiver(comm, 4, kAnySource, 5));
        co_await sched.delay(3.5);
        sched.spawn(receiver(comm, 5, 3, 9));
        break;
      case 1:
        co_await sendAt(comm, 4.0, 5, 400);  // head: receiver 0
        break;
      case 2:
        co_await sendAt(comm, 1.0, 5, 100);  // middle: receiver 1 beats 4
        co_await sendAt(comm, 2.0, 7, 200);  // receiver 2 beats 3
        co_await sendAt(comm, 6.0, 7, 600);  // the last one left: receiver 3
        break;
      case 3:
        co_await sendAt(comm, 3.0, 5, 300);  // tail: receiver 4
        co_await sendAt(comm, 5.0, 9, 500);  // appended after the tail left
        break;
      default:
        break;
    }
  });
  EXPECT_EQ(wakeOrder, (std::vector<int>{1, 2, 4, 0, 5, 3}));
  const std::vector<std::pair<int, int>> want = {
      {400, 1}, {100, 2}, {200, 2}, {600, 2}, {300, 3}, {500, 3}};
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].size, want[i].first) << "receiver " << i;
    EXPECT_EQ(got[i].source, want[i].second) << "receiver " << i;
  }
}

TEST(MpiComm, IsendCallIsMicrosecondsButDeliveryTakesTime) {
  Job job(256);
  double isendDone = -1.0, delivered = -1.0;
  job.run([&](Comm comm) -> Task<> {
    if (comm.rank() == 0) {
      // 64 MiB to a distant rank: the call must return in microseconds even
      // though the wire time is ~150 ms.
      Request req = co_await comm.isend(200, 9, Message::ofSize(64 * MiB));
      isendDone = comm.scheduler().now();
      co_await comm.wait(req);
    } else if (comm.rank() == 200) {
      co_await comm.recv(0, 9);
      delivered = comm.scheduler().now();
    }
  });
  EXPECT_LT(isendDone, 1e-3);
  EXPECT_GT(delivered, 100e-3);
}

TEST(MpiComm, BarrierSynchronisesAllRanks) {
  Job job(256);
  double maxBefore = 0.0, minAfter = 1e30;
  job.run([&](Comm comm) -> Task<> {
    co_await comm.scheduler().delay(static_cast<double>(comm.rank()) * 1e-3);
    maxBefore = std::max(maxBefore, comm.scheduler().now());
    co_await comm.barrier();
    minAfter = std::min(minAfter, comm.scheduler().now());
  });
  EXPECT_GE(minAfter, maxBefore);
}

TEST(MpiComm, AllReduceSumAndMax) {
  Job job(256);
  job.run([](Comm comm) -> Task<> {
    const double sum =
        co_await comm.allReduceSum(static_cast<double>(comm.rank()));
    EXPECT_DOUBLE_EQ(sum, 255.0 * 256.0 / 2.0);
    const double mx =
        co_await comm.allReduceMax(static_cast<double>(1000 - comm.rank()));
    EXPECT_DOUBLE_EQ(mx, 1000.0);
  });
}

TEST(MpiComm, ConsecutiveCollectivesKeepRoundsSeparate) {
  Job job(256);
  job.run([](Comm comm) -> Task<> {
    for (int round = 1; round <= 5; ++round) {
      const double sum = co_await comm.allReduceSum(static_cast<double>(round));
      EXPECT_DOUBLE_EQ(sum, 256.0 * round);
    }
  });
}

TEST(MpiComm, BcastDeliversRootMessage) {
  Job job(256);
  int received = 0;
  job.run([&received](Comm comm) -> Task<> {
    Message mine;
    if (comm.rank() == 3) mine = Message::ofSize(12345);
    Message out = co_await comm.bcast(3, mine);
    EXPECT_EQ(out.size, 12345u);
    ++received;
    co_return;
  });
  EXPECT_EQ(received, 256);
}

TEST(MpiComm, AllGatherCollectsEveryValue) {
  Job job(256);
  job.run([](Comm comm) -> Task<> {
    auto vals = co_await comm.allGatherU64Shared(
        static_cast<std::uint64_t>(comm.rank()) * 10);
    EXPECT_EQ(vals->size(), 256u);
    for (size_t i = 0; i < vals->size(); ++i) EXPECT_EQ((*vals)[i], i * 10);
    // A second gather gets its own snapshot; the first one is unchanged.
    auto again = co_await comm.allGatherU64Shared(
        static_cast<std::uint64_t>(comm.rank()) + 1);
    EXPECT_EQ((*again)[255], 256u);
    EXPECT_EQ((*vals)[255], 2550u);
  });
}

TEST(MpiComm, SplitFormsGroupsWithLocalRanks) {
  Job job(256);
  job.run([](Comm comm) -> Task<> {
    // 4 groups of 64 by rank/64 (the paper's np:nf = 64:1 grouping).
    Comm sub = co_await comm.split(comm.rank() / 64, comm.rank());
    EXPECT_EQ(sub.size(), 64);
    EXPECT_EQ(sub.rank(), comm.rank() % 64);
    EXPECT_EQ(sub.globalRank(sub.rank()), comm.rank());
    // Group-local collectives work and stay inside the group.
    const double sum =
        co_await sub.allReduceSum(static_cast<double>(sub.rank()));
    EXPECT_DOUBLE_EQ(sum, 63.0 * 64.0 / 2.0);
    // P2P within the subgroup: everyone sends to group-local 0.
    if (sub.rank() == 0) {
      for (int i = 1; i < sub.size(); ++i)
        co_await sub.recv(kAnySource, 7);
    } else {
      co_await sub.send(0, 7, Message::ofSize(128));
    }
  });
}

TEST(MpiComm, SplitByKeyReordersRanks) {
  Job job(256);
  job.run([](Comm comm) -> Task<> {
    // Reverse order within one color.
    Comm sub = co_await comm.split(0, -comm.rank());
    EXPECT_EQ(sub.rank(), 255 - comm.rank());
    co_return;
  });
}

TEST(MpiComm, SubCommunicatorIsFreedWhenItsMembersDropIt) {
  // The parent only hands sub-communicators over; their members' Comms own
  // them. A sub-communicator's bcast slot keeps the root's message, box
  // included, so a weak reference to the box watches its state.
  Job job(256);
  std::weak_ptr<void> watch;
  bool aliveInUse = false;
  bool freedAfterDrop = false;
  job.run([&](Comm comm) -> Task<> {
    {
      Comm sub = co_await comm.split(comm.rank() / 64, comm.rank());
      Message m;
      if (comm.rank() == 0) {
        m.box = std::make_shared<int>(7);
        watch = m.box;
      }
      m = co_await sub.bcast(0, m);
      m = Message();
      co_await sub.barrier();
      if (comm.rank() == 0) aliveInUse = !watch.expired();
    }
    co_await comm.barrier();  // every member has dropped its sub Comm
    if (comm.rank() == 0) freedAfterDrop = watch.expired();
  });
  EXPECT_TRUE(aliveInUse);
  EXPECT_TRUE(freedAfterDrop);
}

TEST(MpiComm, WaitAllCompletesAllRequests) {
  Job job(256);
  job.run([](Comm comm) -> Task<> {
    if (comm.rank() == 0) {
      std::vector<Request> reqs;
      for (int dst = 1; dst <= 8; ++dst)
        reqs.push_back(co_await comm.isend(dst, 3, Message::ofSize(MiB)));
      co_await comm.waitAll(reqs);
      for (const auto& r : reqs) EXPECT_TRUE(r.done());
    } else if (comm.rank() <= 8) {
      co_await comm.recv(0, 3);
    }
  });
}

TEST(MpiComm, PerceivedIsendTimesHaveHeavyTailButMicrosecondMedian) {
  Job job(1024);
  std::vector<double> costs;
  job.run([&costs](Comm comm) -> Task<> {
    const double t0 = comm.scheduler().now();
    Request r = co_await comm.isend((comm.rank() + 1) % comm.size(), 1,
                                    Message::ofSize(2400 * 1024));
    costs.push_back(comm.scheduler().now() - t0);
    co_await comm.wait(r);
    co_await comm.recv(kAnySource, 1);
  });
  ASSERT_EQ(costs.size(), 1024u);
  std::sort(costs.begin(), costs.end());
  const double median = costs[costs.size() / 2];
  const double mx = costs.back();
  EXPECT_GT(median, 3e-6);
  EXPECT_LT(median, 30e-6);   // ~10k CPU cycles at 850 MHz
  EXPECT_GT(mx, 3 * median);  // heavy tail (drives Table I's max)
}

TEST(MpiComm, LargeJobCompletes) {
  // Smoke: 16K ranks all-reduce then exchange within 64-rank groups.
  Job job(16384);
  int done = 0;
  job.run([&done](Comm comm) -> Task<> {
    Comm sub = co_await comm.split(comm.rank() / 64, comm.rank());
    if (sub.rank() == 0) {
      for (int i = 1; i < 64; ++i) co_await sub.recv(kAnySource, 2);
    } else {
      co_await sub.send(0, 2, Message::ofSize(64 * 1024));
    }
    co_await comm.barrier();
    ++done;
  });
  EXPECT_EQ(done, 16384);
}

}  // namespace
}  // namespace bgckpt::mpi
