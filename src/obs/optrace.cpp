#include "obs/optrace.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <vector>

#include "simcore/simcheck.hpp"

namespace bgckpt::obs {

namespace {

void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
}

void appendNum(std::string& out, double v) { appendf(out, "%.9g", v); }

double quantileOr(const sim::Sample& s, double q) {
  return s.empty() ? 0.0 : s.quantile(q);
}

}  // namespace

const char* hopName(Hop hop) {
  switch (hop) {
    case Hop::kHandoffSend: return "handoff_send";
    case Hop::kHandoffRecv: return "handoff_recv";
    case Hop::kNetInject: return "net_inject";
    case Hop::kNetFlight: return "net_flight";
    case Hop::kNetEject: return "net_eject";
    case Hop::kNetLocal: return "net_local";
    case Hop::kCollective: return "collective";
    case Hop::kFsCreate: return "fs_create";
    case Hop::kFsOpen: return "fs_open";
    case Hop::kFsClose: return "fs_close";
    case Hop::kTokenWait: return "token_wait";
    case Hop::kIonQueue: return "ion_queue";
    case Hop::kIonForward: return "ion_forward";
    case Hop::kServerQueue: return "server_queue";
    case Hop::kServerService: return "server_service";
    case Hop::kArrayQueue: return "array_queue";
    case Hop::kDdnCommit: return "ddn_commit";
    case Hop::kLocalWrite: return "local_write";
    case Hop::kHostWrite: return "host_write";
    case Hop::kCount: break;
  }
  return "?";
}

OpTracer::OpTracer(std::uint32_t sampleEvery, int tailN)
    : sampleEvery_(sampleEvery > 0 ? sampleEvery : 1),
      tailN_(tailN >= 0 ? tailN : 0) {}

OpTraceContext OpTracer::mint(int rank, const char* op, std::uint64_t offset,
                              sim::Bytes bytes, sim::SimTime now) {
  const auto id = static_cast<std::uint32_t>(minted_++);
  Request req;
  req.id = id;
  req.rank = rank;
  req.op = op;
  req.offset = offset;
  req.bytes = bytes;
  req.t0 = now;
  req.sampled = (id % sampleEvery_) == 0;
  open_.emplace(id, std::move(req));
  return OpTraceContext{this, id};
}

void OpTracer::recordHop(std::uint32_t id, Hop h, sim::SimTime start,
                         sim::SimTime end, sim::Bytes bytes) {
  auto it = open_.find(id);
  if (it == open_.end()) return;  // request already completed: late hop
  Span s;
  s.t0 = start;
  s.dur = end - start;
  s.bytes = bytes;
  s.hop = h;
  it->second.spans.push_back(s);
}

void OpTracer::linkChild(std::uint32_t parent, std::uint32_t child) {
  if (parent == child) return;
  auto it = open_.find(parent);
  if (it == open_.end()) return;
  Request& req = it->second;
  ++req.fanIn;
  ++edges_;
  if (req.children.size() < kMaxChildrenStored)
    req.children.push_back(child);
  else
    req.childrenTruncated = true;
  auto cit = open_.find(child);
  if (cit != open_.end()) cit->second.parent = parent;
}

void OpTracer::completeRequest(std::uint32_t id, sim::SimTime end) {
  auto it = open_.find(id);
  if (it == open_.end()) return;  // double-complete is harmless
  Request req = std::move(it->second);
  open_.erase(it);
  req.t1 = end;
  // A linked child still open completes with its aggregate: the block's
  // journey ends when the write that swallowed it hits the array.
  for (const std::uint32_t c : req.children) completeRequest(c, end);
  aggregate(std::move(req));
}

void OpTracer::aggregate(Request&& req) {
  ++completed_;
  if (req.unfinished) ++unfinished_;
  const double e2e = req.t1 - req.t0;
  std::array<double, kNumHops> totals{};
  std::array<bool, kNumHops> touched{};
  for (const Span& s : req.spans) {
    totals[static_cast<std::size_t>(s.hop)] += s.dur;
    touched[static_cast<std::size_t>(s.hop)] = true;
  }
  const auto feed = [&](OpAgg& agg) {
    ++agg.requests;
    agg.e2eAll.add(e2e);
    if (req.sampled) agg.e2eSampled.add(e2e);
    for (int h = 0; h < kNumHops; ++h) {
      if (!touched[static_cast<std::size_t>(h)]) continue;
      HopAgg& ha = agg.hops[static_cast<std::size_t>(h)];
      ++ha.requests;
      ha.totalSeconds += totals[static_cast<std::size_t>(h)];
      if (req.sampled)
        ha.sampledTotals.add(totals[static_cast<std::size_t>(h)]);
    }
  };
  feed(global_);
  feed(ops_[req.op]);
  if (req.fanIn > 0) fanIn_.add(static_cast<double>(req.fanIn));
  if (req.sampled) ++sampledCount_;

  // Always-capture tail: a min-heap on e2e keeps the N slowest waterfalls
  // regardless of the sampling decision.
  const auto slower = [](const Request& a, const Request& b) {
    return (a.t1 - a.t0) > (b.t1 - b.t0);  // min-heap on e2e
  };
  if (tailN_ > 0) {
    if (tail_.size() < static_cast<std::size_t>(tailN_)) {
      tail_.push_back(req);
      std::push_heap(tail_.begin(), tail_.end(), slower);
    } else if (e2e > tail_.front().t1 - tail_.front().t0) {
      std::pop_heap(tail_.begin(), tail_.end(), slower);
      tail_.back() = req;
      std::push_heap(tail_.begin(), tail_.end(), slower);
    }
  }
  if (req.sampled) {
    if (sampled_.size() < kMaxSampledKept)
      sampled_.push_back(std::move(req));
    else
      ++sampledDropped_;
  }
}

void OpTracer::closeOut(sim::SimTime horizon) {
  if (closed_) return;
  closed_ = true;
  horizon_ = horizon;
  // Complete leftovers in ascending id order: draining the unordered map
  // via begin() would feed the float accumulators and the tail heap in
  // hash-table order, which is not stable across runs — and the exported
  // percentile tables must stay byte-identical.
  std::vector<std::uint32_t> ids;
  ids.reserve(open_.size());
  for (auto& [id, req] : open_) {
    req.unfinished = true;
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  for (std::uint32_t id : ids) completeRequest(id, horizon);
}

OpTracer::HopStat OpTracer::hopStat(Hop h) const {
  const HopAgg& ha = global_.hops[static_cast<std::size_t>(h)];
  return HopStat{ha.requests, ha.totalSeconds,
                 quantileOr(ha.sampledTotals, 0.50),
                 quantileOr(ha.sampledTotals, 0.95),
                 quantileOr(ha.sampledTotals, 0.99),
                 quantileOr(ha.sampledTotals, 1.0)};
}

OpTracer::HopStat OpTracer::hopStat(const char* op, Hop h) const {
  const auto it = ops_.find(op);
  if (it == ops_.end()) return HopStat{};
  const HopAgg& ha = it->second.hops[static_cast<std::size_t>(h)];
  return HopStat{ha.requests, ha.totalSeconds,
                 quantileOr(ha.sampledTotals, 0.50),
                 quantileOr(ha.sampledTotals, 0.95),
                 quantileOr(ha.sampledTotals, 0.99),
                 quantileOr(ha.sampledTotals, 1.0)};
}

double OpTracer::e2eQuantile(double q) const {
  return quantileOr(global_.e2eSampled, q);
}

void OpTracer::writeHopTable(std::string& out, const OpAgg& agg,
                             const char* indent) {
  out += "[";
  bool first = true;
  for (int h = 0; h < kNumHops; ++h) {
    const HopAgg& ha = agg.hops[static_cast<std::size_t>(h)];
    if (ha.requests == 0) continue;
    if (!first) out += ",";
    first = false;
    out += "\n";
    out += indent;
    appendf(out, "{\"hop\": \"%s\", \"requests\": %llu, \"total_seconds\": ",
            hopName(static_cast<Hop>(h)),
            static_cast<unsigned long long>(ha.requests));
    appendNum(out, ha.totalSeconds);
    out += ", \"p50\": ";
    appendNum(out, quantileOr(ha.sampledTotals, 0.50));
    out += ", \"p95\": ";
    appendNum(out, quantileOr(ha.sampledTotals, 0.95));
    out += ", \"p99\": ";
    appendNum(out, quantileOr(ha.sampledTotals, 0.99));
    out += ", \"max\": ";
    appendNum(out, quantileOr(ha.sampledTotals, 1.0));
    out += "}";
  }
  out += "]";
}

namespace {

void writeE2e(std::string& out, std::uint64_t requests,
              const sim::Accumulator& all, const sim::Sample& sampled) {
  appendf(out, "{\"requests\": %llu, \"mean\": ",
          static_cast<unsigned long long>(requests));
  appendNum(out, all.mean());
  out += ", \"p50\": ";
  appendNum(out, quantileOr(sampled, 0.50));
  out += ", \"p95\": ";
  appendNum(out, quantileOr(sampled, 0.95));
  out += ", \"p99\": ";
  appendNum(out, quantileOr(sampled, 0.99));
  out += ", \"max\": ";
  appendNum(out, all.max());
  out += "}";
}

}  // namespace

void OpTracer::writeRequest(std::string& out, const Request& req,
                            const char* indent) {
  appendf(out, "{\"id\": %u, \"rank\": %d, \"op\": \"%s\", \"offset\": %llu, "
               "\"bytes\": %llu, \"t0\": ",
          req.id, req.rank, req.op,
          static_cast<unsigned long long>(req.offset),
          static_cast<unsigned long long>(req.bytes));
  appendNum(out, req.t0);
  out += ", \"e2e\": ";
  appendNum(out, req.t1 - req.t0);
  if (req.parent != kNoParent) appendf(out, ", \"parent\": %u", req.parent);
  if (req.fanIn > 0) appendf(out, ", \"fan_in\": %u", req.fanIn);
  if (req.unfinished) out += ", \"unfinished\": true";
  if (!req.children.empty()) {
    out += ", \"children\": [";
    for (std::size_t i = 0; i < req.children.size(); ++i)
      appendf(out, "%s%u", i ? "," : "", req.children[i]);
    out += "]";
    if (req.childrenTruncated) out += ", \"children_truncated\": true";
  }
  out += ",\n";
  out += indent;
  out += " \"spans\": [";
  for (std::size_t i = 0; i < req.spans.size(); ++i) {
    const Span& s = req.spans[i];
    if (i) out += ",";
    out += "\n";
    out += indent;
    appendf(out, "  {\"hop\": \"%s\", \"t0\": ", hopName(s.hop));
    appendNum(out, s.t0);
    out += ", \"dur\": ";
    appendNum(out, s.dur);
    if (s.bytes != 0)
      appendf(out, ", \"bytes\": %llu",
              static_cast<unsigned long long>(s.bytes));
    out += "}";
  }
  if (!req.spans.empty()) {
    out += "\n";
    out += indent;
    out += " ";
  }
  out += "]}";
}

std::string OpTracer::toJson() const {
  SIM_CHECK(closed_, "OpTracer::toJson requires closeOut first");
  std::string out;
  out.reserve(1 << 16);
  out += "{\n  \"schema\": \"";
  out += kSchemaVersion;
  appendf(out, "\",\n  \"sample_every\": %u,\n  \"tail_n\": %d,\n"
               "  \"horizon\": ",
          sampleEvery_, tailN_);
  appendNum(out, horizon_);
  appendf(out, ",\n  \"requests\": {\"minted\": %llu, \"completed\": %llu, "
               "\"unfinished\": %llu, \"sampled\": %llu},\n  \"e2e\": ",
          static_cast<unsigned long long>(minted_),
          static_cast<unsigned long long>(completed_),
          static_cast<unsigned long long>(unfinished_),
          static_cast<unsigned long long>(sampledCount_));
  writeE2e(out, global_.requests, global_.e2eAll, global_.e2eSampled);
  out += ",\n  \"hops\": ";
  writeHopTable(out, global_, "    ");
  out += ",\n  \"ops\": [";
  bool firstOp = true;
  for (const auto& [op, agg] : ops_) {
    if (!firstOp) out += ",";
    firstOp = false;
    out += "\n    {\"op\": \"" + op + "\", \"e2e\": ";
    writeE2e(out, agg.requests, agg.e2eAll, agg.e2eSampled);
    out += ",\n     \"hops\": ";
    writeHopTable(out, agg, "      ");
    out += "}";
  }
  out += "\n  ],\n  \"lineage\": {\"aggregates\": ";
  appendf(out, "%zu, \"edges\": %llu, \"fan_in\": {\"min\": ",
          fanIn_.size(), static_cast<unsigned long long>(edges_));
  appendNum(out, quantileOr(fanIn_, 0.0));
  out += ", \"p50\": ";
  appendNum(out, quantileOr(fanIn_, 0.50));
  out += ", \"max\": ";
  appendNum(out, quantileOr(fanIn_, 1.0));
  out += "}},\n  \"tail\": [";
  // Slowest first: the heap order is an implementation detail.
  std::vector<const Request*> tail;
  tail.reserve(tail_.size());
  for (const Request& r : tail_) tail.push_back(&r);
  std::sort(tail.begin(), tail.end(), [](const Request* a, const Request* b) {
    const double ea = a->t1 - a->t0;
    const double eb = b->t1 - b->t0;
    if (ea != eb) return ea > eb;
    return a->id < b->id;
  });
  for (std::size_t i = 0; i < tail.size(); ++i) {
    if (i) out += ",";
    out += "\n    ";
    writeRequest(out, *tail[i], "    ");
  }
  appendf(out, "\n  ],\n  \"sampled_kept\": %zu, \"sampled_dropped\": %llu,"
               "\n  \"sampled\": [",
          sampled_.size(), static_cast<unsigned long long>(sampledDropped_));
  for (std::size_t i = 0; i < sampled_.size(); ++i) {
    if (i) out += ",";
    out += "\n    ";
    writeRequest(out, sampled_[i], "    ");
  }
  out += "\n  ]\n}\n";
  return out;
}

void OpTraceSink::exportTo(std::string jsonPath) {
  if (!jsonPath.empty()) jsonPath_ = std::move(jsonPath);
}

void OpTraceSink::finalize(sim::SimTime horizon) {
  if (finalized_) return;
  finalized_ = true;
  tracer_->closeOut(horizon);
  if (!jsonPath_.empty()) writeArtifact(jsonPath_, tracer_->toJson());
}

}  // namespace bgckpt::obs
