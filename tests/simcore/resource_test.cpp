#include "simcore/resource.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace bgckpt::sim {
namespace {

TEST(Resource, ImmediateAcquireWhenAvailable) {
  Scheduler sched;
  Resource res(sched, 4);
  bool done = false;
  auto body = [&]() -> Task<> {
    co_await res.acquire(3);
    EXPECT_EQ(res.available(), 1);
    res.release(3);
    done = true;
  };
  sched.spawn(body());
  sched.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(res.available(), 4);
}

TEST(Resource, AcquireSuspendsUntilRelease) {
  Scheduler sched;
  Resource res(sched, 1);
  std::vector<double> acquireTimes;
  auto body = [](Scheduler& s, Resource& r, std::vector<double>& out) -> Task<> {
    co_await r.acquire();
    out.push_back(s.now());
    co_await s.delay(2.0);
    r.release();
  };
  for (int i = 0; i < 3; ++i) sched.spawn(body(sched, res, acquireTimes));
  sched.run();
  ASSERT_EQ(acquireTimes.size(), 3u);
  EXPECT_DOUBLE_EQ(acquireTimes[0], 0.0);
  EXPECT_DOUBLE_EQ(acquireTimes[1], 2.0);
  EXPECT_DOUBLE_EQ(acquireTimes[2], 4.0);
}

TEST(Resource, FifoNoBypassByLaterSmallRequest) {
  Scheduler sched;
  Resource res(sched, 4);
  std::vector<int> order;
  // P0 takes everything; P1 asks for 3 (must wait); P2 asks for 1 and could
  // fit after P0 partially releases, but FIFO discipline holds it behind P1.
  auto p0 = [&]() -> Task<> {
    co_await res.acquire(4);
    co_await sched.delay(1.0);
    res.release(1);  // 1 token free; P1 (head) still cannot run
    co_await sched.delay(1.0);
    res.release(3);
    order.push_back(0);
  };
  auto p1 = [&]() -> Task<> {
    co_await sched.delay(0.1);
    co_await res.acquire(3);
    order.push_back(1);
    res.release(3);
  };
  auto p2 = [&]() -> Task<> {
    co_await sched.delay(0.2);
    co_await res.acquire(1);
    order.push_back(2);
    res.release(1);
  };
  sched.spawn(p0());
  sched.spawn(p1());
  sched.spawn(p2());
  sched.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);  // P1 admitted before P2 despite needing more
  EXPECT_EQ(order[2], 2);
}

TEST(Resource, FifoEvenWhenTokensFree) {
  Scheduler sched;
  Resource res(sched, 2);
  std::vector<int> order;
  auto holder = [&]() -> Task<> {
    co_await res.acquire(2);
    co_await sched.delay(1.0);
    res.release(2);
  };
  auto waiter = [&]() -> Task<> {
    co_await sched.delay(0.5);
    co_await res.acquire(2);
    order.push_back(1);
    res.release(2);
  };
  auto late = [&]() -> Task<> {
    co_await sched.delay(2.0);
    co_await res.acquire(1);
    order.push_back(2);
    res.release(1);
  };
  sched.spawn(holder());
  sched.spawn(waiter());
  sched.spawn(late());
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Resource, OneReleaseAdmitsSeveralWaitersInArrivalOrder) {
  Scheduler sched;
  Resource res(sched, 4);
  std::vector<std::pair<int, double>> grants;  // (waiter, grant time)
  auto holder = [&]() -> Task<> {
    co_await res.acquire(4);
    co_await sched.delay(1.0);
    res.release(4);
  };
  // Arrive at 0.1, 0.2, ... asking 1, 2, 1, 2: the release at t=1 admits
  // the first three (4 tokens) in arrival order; the fourth waits for one.
  auto waiter = [&](int id, std::int64_t n) -> Task<> {
    co_await sched.delay(0.1 * id);
    co_await res.acquire(n);
    grants.emplace_back(id, sched.now());
    co_await sched.delay(1.0);
    res.release(n);
  };
  sched.spawn(holder());
  for (int id = 1; id <= 4; ++id) sched.spawn(waiter(id, id % 2 ? 1 : 2));
  sched.runUntil(0.5);
  EXPECT_EQ(res.queueLength(), 4u);
  sched.runUntil(1.0);
  EXPECT_EQ(res.queueLength(), 1u);
  sched.run();
  const std::vector<std::pair<int, double>> want = {
      {1, 1.0}, {2, 1.0}, {3, 1.0}, {4, 2.0}};
  EXPECT_EQ(grants, want);
  EXPECT_EQ(res.available(), 4);
}

TEST(Resource, ReacquireAfterGrantJoinsBackOfQueue) {
  Scheduler sched;
  Resource res(sched, 1);
  std::vector<std::pair<int, double>> grants;
  auto proc = [&](int id, int rounds) -> Task<> {
    for (int i = 0; i < rounds; ++i) {
      co_await res.acquire();
      grants.emplace_back(id, sched.now());
      co_await sched.delay(1.0);
      res.release();
    }
  };
  // P0 holds first; P1 and P2 queue behind it. P0's second acquire, made
  // right after its release handed the token to P1, queues behind P2.
  sched.spawn(proc(0, 2));
  sched.spawn(proc(1, 1));
  sched.spawn(proc(2, 1));
  sched.run();
  const std::vector<std::pair<int, double>> want = {
      {0, 0.0}, {1, 1.0}, {2, 2.0}, {0, 3.0}};
  EXPECT_EQ(grants, want);
}

TEST(Resource, ScopedTokensReleaseOnScopeExit) {
  Scheduler sched;
  Resource res(sched, 2);
  auto body = [&]() -> Task<> {
    {
      co_await res.acquire(2);
      ScopedTokens hold(res, 2);
      EXPECT_EQ(res.available(), 0);
    }
    EXPECT_EQ(res.available(), 2);
  };
  sched.spawn(body());
  sched.run();
  EXPECT_EQ(sched.liveRoots(), 0u);
}

TEST(Resource, QueueLengthTracksWaiters) {
  Scheduler sched;
  Resource res(sched, 1);
  auto holder = [&]() -> Task<> {
    co_await res.acquire();
    co_await sched.delay(10.0);
    res.release();
  };
  sched.spawn(holder());
  auto w = [](Resource& r) -> Task<> {
    co_await r.acquire();
    r.release();
  };
  for (int i = 0; i < 5; ++i) sched.spawn(w(res));
  sched.runUntil(5.0);
  EXPECT_EQ(res.queueLength(), 5u);
  sched.run();
  EXPECT_EQ(res.queueLength(), 0u);
  EXPECT_EQ(sched.liveRoots(), 0u);
}

TEST(Mutex, ProvidesMutualExclusion) {
  Scheduler sched;
  Mutex mu(sched);
  int inside = 0;
  int maxInside = 0;
  auto body = [](Scheduler& s, Mutex& m, int& in, int& maxIn) -> Task<> {
    co_await m.lock();
    ++in;
    maxIn = std::max(maxIn, in);
    co_await s.delay(1.0);
    --in;
    m.unlock();
  };
  for (int i = 0; i < 8; ++i) sched.spawn(body(sched, mu, inside, maxInside));
  sched.run();
  EXPECT_EQ(maxInside, 1);
  EXPECT_DOUBLE_EQ(sched.now(), 8.0);
}

}  // namespace
}  // namespace bgckpt::sim
