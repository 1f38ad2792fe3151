#include "profiling/report.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <vector>

#include "simcore/units.hpp"

namespace bgckpt::prof {

std::string renderOpTable(const IoCounts& counts) {
  std::ostringstream out;
  out << "  op      |   count |        bytes |   busy time | mean latency\n";
  out << "  --------+---------+--------------+-------------+-------------\n";
  for (Op op : kAllOps) {
    const std::uint64_t count = counts.opCount(op);
    if (count == 0) continue;
    const sim::Bytes bytes = counts.totalBytes(op);
    const double busy = counts.busySeconds(op);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "  %-7s | %7llu | %12s | %11s | %11s\n", opName(op),
                  static_cast<unsigned long long>(count),
                  sim::formatBytes(bytes).c_str(),
                  sim::formatDuration(busy).c_str(),
                  sim::formatDuration(busy / static_cast<double>(count))
                      .c_str());
    out << buf;
  }
  return out.str();
}

std::string renderSlowestRanks(const IoProfile& profile, int numRanks,
                               int count) {
  const auto envelope = profile.perRankEnvelope(numRanks);
  std::vector<int> order(static_cast<std::size_t>(numRanks));
  for (int r = 0; r < numRanks; ++r) order[static_cast<std::size_t>(r)] = r;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return envelope[static_cast<std::size_t>(a)] >
           envelope[static_cast<std::size_t>(b)];
  });
  std::ostringstream out;
  out << "  slowest ranks (I/O envelope):\n";
  for (int i = 0; i < count && i < numRanks; ++i) {
    const int rank = order[static_cast<std::size_t>(i)];
    // Op mix for this rank.
    std::uint64_t writes = 0, metadata = 0, msgs = 0;
    for (const auto& rec : profile.records()) {
      if (rec.rank != rank) continue;
      if (rec.op == Op::kWrite) ++writes;
      if (rec.op == Op::kCreate || rec.op == Op::kOpen ||
          rec.op == Op::kClose)
        ++metadata;
      if (rec.op == Op::kSend || rec.op == Op::kRecv) ++msgs;
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "    rank %6d  %10s  (%llu writes, %llu metadata, "
                  "%llu msgs)\n",
                  rank,
                  sim::formatDuration(envelope[static_cast<std::size_t>(rank)])
                      .c_str(),
                  static_cast<unsigned long long>(writes),
                  static_cast<unsigned long long>(metadata),
                  static_cast<unsigned long long>(msgs));
    out << buf;
  }
  return out.str();
}

std::string renderReport(const IoProfile& profile, const ReportOptions& opt) {
  std::ostringstream out;
  out << "=== I/O profile: " << opt.jobName << " ===\n";
  char buf[160];
  std::snprintf(buf, sizeof(buf), "  records: %zu   ranks: %d\n",
                profile.records().size(), opt.numRanks);
  out << buf;

  double horizon = 0;
  for (const auto& r : profile.records()) horizon = std::max(horizon, r.end);
  const sim::Bytes written = profile.totalBytes(Op::kWrite);
  std::snprintf(buf, sizeof(buf),
                "  span: %s   data written: %s   avg write rate: %s\n",
                sim::formatDuration(horizon).c_str(),
                sim::formatBytes(written).c_str(),
                sim::formatBandwidth(horizon > 0
                                         ? static_cast<double>(written) /
                                               horizon
                                         : 0)
                    .c_str());
  out << buf;
  out << "\n" << renderOpTable(profile.counts());
  if (opt.numRanks > 0)
    out << "\n"
        << renderSlowestRanks(profile, opt.numRanks, opt.slowestRanksShown);
  return out.str();
}

}  // namespace bgckpt::prof
