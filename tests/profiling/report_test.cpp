#include "profiling/report.hpp"

#include <gtest/gtest.h>

namespace bgckpt::prof {
namespace {

IoProfile sampleProfile() {
  IoProfile p;
  p.record(0, Op::kCreate, 0.0, 0.5);
  p.record(0, Op::kWrite, 0.5, 2.5, 100 * 1024 * 1024);
  p.record(0, Op::kClose, 2.5, 2.6);
  p.record(1, Op::kSend, 0.0, 0.001, 2 * 1024 * 1024);
  p.record(2, Op::kWrite, 0.0, 9.0, 400 * 1024 * 1024);
  return p;
}

TEST(Report, OpTableListsUsedOpsOnly) {
  const auto table = renderOpTable(sampleProfile().counts());
  EXPECT_NE(table.find("create"), std::string::npos);
  EXPECT_NE(table.find("write"), std::string::npos);
  EXPECT_NE(table.find("send"), std::string::npos);
  EXPECT_EQ(table.find("recv"), std::string::npos);  // never recorded
  EXPECT_NE(table.find("500.00 MiB"), std::string::npos);  // write bytes
}

TEST(Report, SlowestRanksOrderedByEnvelope) {
  const auto s = renderSlowestRanks(sampleProfile(), 3, 2);
  // Rank 2 (9 s) before rank 0 (2.6 s).
  const auto pos2 = s.find("rank      2");
  const auto pos0 = s.find("rank      0");
  ASSERT_NE(pos2, std::string::npos);
  ASSERT_NE(pos0, std::string::npos);
  EXPECT_LT(pos2, pos0);
  EXPECT_NE(s.find("2 metadata"), std::string::npos);  // rank 0's mix
}

TEST(Report, FullReportHasHeaderSpanAndRate) {
  ReportOptions opt;
  opt.numRanks = 3;
  opt.jobName = "test-job";
  const auto report = renderReport(sampleProfile(), opt);
  EXPECT_NE(report.find("test-job"), std::string::npos);
  EXPECT_NE(report.find("span: 9.000 s"), std::string::npos);
  EXPECT_NE(report.find("avg write rate"), std::string::npos);
  EXPECT_NE(report.find("slowest ranks"), std::string::npos);
}

TEST(Report, EmptyProfileDoesNotCrash) {
  IoProfile empty;
  ReportOptions opt;
  opt.numRanks = 0;
  const auto report = renderReport(empty, opt);
  EXPECT_NE(report.find("records: 0"), std::string::npos);
}

}  // namespace
}  // namespace bgckpt::prof
