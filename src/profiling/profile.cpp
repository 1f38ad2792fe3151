#include "profiling/profile.hpp"

#include <algorithm>
#include <cmath>

namespace bgckpt::prof {

const char* opName(Op op) {
  switch (op) {
    case Op::kCreate: return "create";
    case Op::kOpen: return "open";
    case Op::kWrite: return "write";
    case Op::kClose: return "close";
    case Op::kSend: return "send";
    case Op::kRecv: return "recv";
    case Op::kOther: return "other";
  }
  return "?";
}

std::optional<Op> opFromName(std::string_view name) {
  for (const Op op : kAllOps)
    if (name == opName(op)) return op;
  return std::nullopt;
}

std::vector<double> IoProfile::perRankEnvelope(int numRanks) const {
  std::vector<double> first(static_cast<std::size_t>(numRanks), 1e300);
  std::vector<double> last(static_cast<std::size_t>(numRanks), -1.0);
  for (const auto& r : records_) {
    if (r.rank < 0 || r.rank >= numRanks) continue;
    auto i = static_cast<std::size_t>(r.rank);
    first[i] = std::min(first[i], r.start);
    last[i] = std::max(last[i], r.end);
  }
  std::vector<double> result(static_cast<std::size_t>(numRanks), 0.0);
  for (std::size_t i = 0; i < result.size(); ++i)
    if (last[i] >= 0) result[i] = last[i] - first[i];
  return result;
}

std::vector<double> IoProfile::perRankBusy(int numRanks) const {
  std::vector<double> result(static_cast<std::size_t>(numRanks), 0.0);
  for (const auto& r : records_) {
    if (r.rank < 0 || r.rank >= numRanks) continue;
    result[static_cast<std::size_t>(r.rank)] += r.duration();
  }
  return result;
}

std::vector<int> IoProfile::activityTimeline(Op op, double binWidth,
                                             double horizon) const {
  if (binWidth <= 0 || horizon <= 0) return {};
  const auto bins = static_cast<std::size_t>(std::ceil(horizon / binWidth));
  std::vector<int> counts(bins, 0);
  for (const auto& r : records_) {
    if (r.op != op) continue;
    auto lo = static_cast<std::size_t>(
        std::max(0.0, std::floor(r.start / binWidth)));
    auto hi = static_cast<std::size_t>(
        std::max(0.0, std::ceil(r.end / binWidth)));
    hi = std::min(hi, bins);
    for (std::size_t b = lo; b < hi && b < bins; ++b) ++counts[b];
  }
  return counts;
}

}  // namespace bgckpt::prof
