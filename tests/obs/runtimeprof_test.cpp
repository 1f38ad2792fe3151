// RuntimeProfiler: parallelFor region recording with point labels, the
// serial path's region bookkeeping, and the JSON export round-tripped
// through the obs JSON parser.
#include "obs/runtimeprof.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "simcore/parallel.hpp"

namespace bgckpt::obs {
namespace {

std::string tmpPath(const char* name) {
  const char* t = std::getenv("TMPDIR");
  return std::string(t != nullptr ? t : "/tmp") + "/" + name;
}

TEST(RuntimeProfiler, ParallelForRegionCarriesPointLabels) {
  RuntimeProfiler prof;
  prof.install();
  prof.setPointLabels({"pt-a", "pt-b", "pt-c"});
  std::vector<int> slots(3, 0);
  sim::parallelFor(3, 2, [&](std::size_t i) { slots[i] = 1; });
  prof.uninstall();

  EXPECT_EQ(std::accumulate(slots.begin(), slots.end(), 0), 3);
  ASSERT_EQ(prof.regions().size(), 1u);
  const ParallelRegionProfile& region = *prof.regions().front();
  EXPECT_EQ(region.jobs, 3u);
  EXPECT_EQ(region.threads, 2u);
  EXPECT_GT(region.wallNs, 0u);
  ASSERT_EQ(region.perJob.size(), 3u);
  EXPECT_EQ(region.perJob[0].label, "pt-a");
  EXPECT_EQ(region.perJob[1].label, "pt-b");
  EXPECT_EQ(region.perJob[2].label, "pt-c");
  for (const auto& job : region.perJob) EXPECT_LT(job.worker, 2u);
}

TEST(RuntimeProfiler, SerialParallelForStillRecordsRegion) {
  RuntimeProfiler prof;
  prof.install();
  sim::parallelFor(2, 1, [](std::size_t) {});
  prof.uninstall();
  ASSERT_EQ(prof.regions().size(), 1u);
  EXPECT_EQ(prof.regions().front()->threads, 1u);
  EXPECT_EQ(prof.regions().front()->jobs, 2u);
}

// A throwing job must not leave its region open: the serial path closes it
// like the threaded one, so the region still gets its wall time.
TEST(RuntimeProfiler, SerialRegionWithThrowingJobStillCloses) {
  RuntimeProfiler prof;
  prof.install();
  EXPECT_THROW(sim::parallelFor(2, 1,
                                [](std::size_t i) {
                                  if (i == 0) throw std::runtime_error("job");
                                }),
               std::runtime_error);
  prof.uninstall();
  ASSERT_EQ(prof.regions().size(), 1u);
  EXPECT_GT(prof.regions().front()->wallNs, 0u);
}

TEST(RuntimeProfiler, WriteJsonRoundTripsThroughParser) {
  RuntimeProfiler prof;
  prof.install();
  prof.setPointLabels({"j0", "j1"});
  sim::parallelFor(2, 2, [](std::size_t) {});
  prof.recordPoint("j0", 1.25, 1000, 2);
  prof.uninstall();

  const std::string path = tmpPath("runtimeprof_roundtrip.json");
  ASSERT_TRUE(prof.writeJson(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string parseError;
  const auto doc = json::parse(ss.str(), &parseError);
  ASSERT_TRUE(doc.has_value()) << parseError;

  EXPECT_EQ(doc->stringOr("schema", ""), kRuntimeProfSchemaVersion);
  EXPECT_EQ(doc->stringOr("clock", ""), "steady");
  EXPECT_EQ(doc->find("shard_runs"), nullptr);
  const auto* regions = doc->find("parallel_regions");
  ASSERT_TRUE(regions != nullptr && regions->isArray());
  ASSERT_EQ(regions->array->size(), 1u);
  const auto* jobs = regions->array->front().find("jobs_detail");
  ASSERT_TRUE(jobs != nullptr && jobs->isArray());
  EXPECT_EQ(jobs->array->front().stringOr("label", ""), "j0");
  const auto* points = doc->find("points");
  ASSERT_TRUE(points != nullptr && points->isArray());
  ASSERT_EQ(points->array->size(), 1u);
  EXPECT_EQ(points->array->front().numberOr("wall_s", 0), 1.25);
  std::remove(path.c_str());
}

// A full disk surfaces when fclose flushes the buffered tail, not at
// fopen or fprintf time; the export must report that as a failure.
TEST(RuntimeProfiler, WriteJsonFailsOnFullDisk) {
  if (!std::filesystem::exists("/dev/full"))
    GTEST_SKIP() << "no /dev/full on this platform";
  RuntimeProfiler prof;
  prof.recordPoint("p", 1.0, 1, 1);
  EXPECT_FALSE(prof.writeJson("/dev/full"));
}

}  // namespace
}  // namespace bgckpt::obs
