// What observability costs a stack when no reader has asked for anything.
// A default SimStack keeps O(1) per-op counts, so an I/O completion or an
// MPI message must not allocate; per-op records and the MPI pair matrix are
// paid for only once a reader attaches an IoProfile or asks for a metrics
// export. A binary of its own: the counting operator new replaces the
// allocator for every test linked into it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "iolib/strategies.hpp"
#include "profiling/profile.hpp"

namespace {
std::atomic<std::uint64_t> gAllocs{0};
}  // namespace

// GCC flags free() inside a replacement operator delete as a mismatched
// pair; replacing the global allocator like this is explicitly allowed.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  gAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace bgckpt {
namespace {

constexpr int kOps = 10000;
constexpr int kNp = 256;

/// Heap allocations made while `fn` runs.
template <typename Fn>
std::uint64_t allocsDuring(Fn&& fn) {
  const std::uint64_t before = gAllocs.load(std::memory_order_relaxed);
  fn();
  return gAllocs.load(std::memory_order_relaxed) - before;
}

/// kOps kIo write completions, as the strategies emit one per write call.
void completeWrites(obs::Observability& obs) {
  for (int i = 0; i < kOps; ++i)
    obs.completeBytes(obs::Layer::kIo, i % kNp, "write", i, i + 0.5, 4096);
}

/// kOps MPI message deliveries, each over a distinct rank pair.
void deliverMessages(obs::Observability& obs) {
  for (int i = 0; i < kOps; ++i) obs.message(i, i + 1, 4096, i, i + 0.001);
}

TEST(DefaultCost, IoCompletionsAllocateNothing) {
  iolib::SimStack stack(kNp);
  EXPECT_EQ(allocsDuring([&] { completeWrites(stack.obs); }), 0u);
  EXPECT_EQ(stack.profile.opCount(prof::Op::kWrite),
            static_cast<std::uint64_t>(kOps));
}

TEST(DefaultCost, MessagesAllocateNothing) {
  iolib::SimStack stack(kNp);
  EXPECT_EQ(allocsDuring([&] { deliverMessages(stack.obs); }), 0u);
  EXPECT_TRUE(stack.obs.metrics().pairs().empty());
}

TEST(DefaultCost, ReadersPayForWhatTheyAsk) {
  const std::string metrics =
      ::testing::TempDir() + "default_cost_metrics.json";
  {
    iolib::SimStack stack(kNp);
    prof::IoProfile profile;
    stack.obs.addSink(std::make_shared<prof::IoProfileSink>(profile));
    EXPECT_GT(allocsDuring([&] { completeWrites(stack.obs); }), 0u);
    EXPECT_EQ(profile.records().size(), static_cast<std::size_t>(kOps));

    stack.obs.exportOnDestroy(metrics);
    EXPECT_GT(allocsDuring([&] { deliverMessages(stack.obs); }), 0u);
    EXPECT_EQ(stack.obs.metrics().pairs().size(),
              static_cast<std::size_t>(kOps));
  }
  std::remove(metrics.c_str());
}

TEST(DefaultCost, CoIoCheckpointKeepsCountsNotPairs) {
  iolib::SimStack stack(kNp);
  const auto spec = iolib::CheckpointSpec::nekcemWeakScaling(kNp);
  iolib::runCheckpoint(stack, spec, iolib::StrategyConfig::coIo(1));
  EXPECT_TRUE(stack.obs.metrics().pairs().empty());
  // Every rank joins the header's collective write and one per field.
  EXPECT_EQ(stack.profile.opCount(prof::Op::kWrite),
            static_cast<std::uint64_t>(kNp) * (spec.numFields + 1));
}

}  // namespace
}  // namespace bgckpt
