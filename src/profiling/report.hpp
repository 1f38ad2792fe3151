// Darshan-style job summary report.
//
// The paper verifies its tuning "by examining I/O log data from both user
// profiling and system profiling" (Darshan). This renders an IoProfile
// into the comparable text summary: per-operation counts/bytes/time, the
// slowest ranks, and access-size statistics.
#pragma once

#include <string>

#include "profiling/profile.hpp"

namespace bgckpt::prof {

struct ReportOptions {
  int numRanks = 0;        ///< ranks in the job (for per-rank sections)
  int slowestRanksShown = 5;
  std::string jobName = "checkpoint";
};

/// Render the whole report.
std::string renderReport(const IoProfile& profile, const ReportOptions& opt);

/// One line per op kind: count, bytes, total busy time, mean latency.
std::string renderOpTable(const IoCounts& counts);

/// The N ranks with the largest I/O envelope, with their op mix.
std::string renderSlowestRanks(const IoProfile& profile, int numRanks,
                               int count);

}  // namespace bgckpt::prof
