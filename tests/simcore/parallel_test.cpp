#include "simcore/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

namespace bgckpt::sim {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<int> hits(257, 0);
  parallelFor(hits.size(), 4,
              [&](std::size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, InlineWhenSingleThreaded) {
  std::vector<std::size_t> order;
  parallelFor(5, 1, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, ZeroJobsIsANoop) {
  bool touched = false;
  parallelFor(0, 8, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

// Serial and threaded runs share one contract: every job runs, and the
// lowest failing index's exception surfaces after they all finish.
TEST(ParallelFor, RethrowsLowestIndexException) {
  for (unsigned threads : {1u, 4u}) {
    std::atomic<int> ran{0};
    try {
      parallelFor(16, threads, [&](std::size_t i) {
        ++ran;
        if (i == 3 || i == 11) throw std::runtime_error(std::to_string(i));
      });
      ADD_FAILURE() << "expected an exception, threads=" << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "3") << "threads=" << threads;
    }
    EXPECT_EQ(ran.load(), 16) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace bgckpt::sim
