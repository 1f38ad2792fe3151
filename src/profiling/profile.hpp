// Darshan-style I/O profiling, fed from the obs kIo event stream.
//
// Two recorders share one sink. IoCounts keeps a count, a byte total and a
// busy-seconds sum per op in O(1) space; every iolib::SimStack keeps one as
// `stack.profile`. IoProfile keeps every op record as well, for the
// readers that post-process them into the paper's plots: per-rank I/O-time
// scatters (Figs. 9-11), write-activity timelines (Fig. 12) and the
// Darshan report. A reader attaches its own IoProfile:
//
//   prof::IoProfile profile;
//   stack.obs.addSink(std::make_shared<prof::IoProfileSink>(profile));
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "obs/obs.hpp"
#include "simcore/units.hpp"

namespace bgckpt::prof {

enum class Op : std::uint8_t {
  kCreate,
  kOpen,
  kWrite,
  kClose,
  kSend,   // worker -> writer handoff (rbIO)
  kRecv,   // writer side of the handoff
  kOther,
};

inline constexpr std::array<Op, 7> kAllOps = {
    Op::kCreate, Op::kOpen, Op::kWrite, Op::kClose,
    Op::kSend,   Op::kRecv, Op::kOther};

const char* opName(Op op);
/// Inverse of opName; nullopt for names that are not I/O ops (e.g. the
/// rbIO phase spans that share the obs kIo layer).
std::optional<Op> opFromName(std::string_view name);

struct OpRecord {
  int rank = -1;
  Op op = Op::kOther;
  sim::SimTime start = 0;
  sim::SimTime end = 0;
  sim::Bytes bytes = 0;

  sim::Duration duration() const { return end - start; }
};

/// Job-wide totals per op. Busy seconds accumulate in record order, so a
/// table rendered from them matches one summed over an IoProfile's records.
class IoCounts {
 public:
  /// Same signature as IoProfile::record so one sink feeds either; the
  /// rank is not kept.
  void record(int /*rank*/, Op op, sim::SimTime start, sim::SimTime end,
              sim::Bytes bytes = 0) {
    Totals& t = byOp_[static_cast<std::size_t>(op)];
    ++t.count;
    t.bytes += bytes;
    t.busy += end - start;
  }

  std::uint64_t opCount(Op op) const { return totals(op).count; }
  sim::Bytes totalBytes(Op op) const { return totals(op).bytes; }
  /// Sum of op durations (time ranks spent blocked in the op).
  sim::Duration busySeconds(Op op) const { return totals(op).busy; }

 private:
  struct Totals {
    std::uint64_t count = 0;
    sim::Bytes bytes = 0;
    sim::Duration busy = 0;
  };
  const Totals& totals(Op op) const {
    return byOp_[static_cast<std::size_t>(op)];
  }

  std::array<Totals, kAllOps.size()> byOp_{};
};

/// Every op record, plus the same totals IoCounts keeps.
class IoProfile {
 public:
  void record(int rank, Op op, sim::SimTime start, sim::SimTime end,
              sim::Bytes bytes = 0) {
    records_.push_back({rank, op, start, end, bytes});
    counts_.record(rank, op, start, end, bytes);
  }

  const std::vector<OpRecord>& records() const { return records_; }
  const IoCounts& counts() const { return counts_; }
  std::uint64_t opCount(Op op) const { return counts_.opCount(op); }
  sim::Bytes totalBytes(Op op) const { return counts_.totalBytes(op); }

  /// Per-rank wall-clock I/O time: last end minus first start of that
  /// rank's records (the per-processor times of Figs. 9-11). Ranks with no
  /// records report 0.
  std::vector<double> perRankEnvelope(int numRanks) const;

  /// Per-rank sum of op durations (time actually blocked in I/O calls).
  std::vector<double> perRankBusy(int numRanks) const;

  /// Number of ranks with at least one record of `op` active in each time
  /// bin of width `binWidth` over [0, horizon) — the Fig. 12 timeline.
  /// Non-positive binWidth or horizon yields an empty timeline; records
  /// straddling the horizon count in every bin they overlap.
  std::vector<int> activityTimeline(Op op, double binWidth,
                                    double horizon) const;

 private:
  std::vector<OpRecord> records_;
  IoCounts counts_;
};

/// Trace sink that replays the kIo event stream into an IoCounts or an
/// IoProfile, so the profile is a consumer of the same events every other
/// sink sees rather than a parallel bookkeeping path.
template <typename Recorder>
class IoRecorderSink final : public obs::TraceSink {
 public:
  explicit IoRecorderSink(Recorder& recorder) : recorder_(recorder) {}

  void event(const obs::TraceEvent& ev) override {
    if (ev.phase != 'X') return;  // phase spans (B/E) are not op records
    const auto op = opFromName(ev.name);
    if (!op) return;
    recorder_.record(ev.tid, *op, ev.ts, ev.ts + ev.dur, ev.bytes);
  }

  unsigned layerMask() const override {
    return obs::layerBit(obs::Layer::kIo);
  }

 private:
  Recorder& recorder_;
};

using IoCountsSink = IoRecorderSink<IoCounts>;
using IoProfileSink = IoRecorderSink<IoProfile>;

}  // namespace bgckpt::prof
