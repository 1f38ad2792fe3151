// trace_report: offline analysis of a bench's observability exports.
//
// Usage:  trace_report <trace.json> [--bins N]
//         trace_report --attr <attr.json> [--diff <other.json>]
//         trace_report --waterfall <optrace.json> [--req ID | --diff <other>]
//                      [--width N]
//         trace_report --runtime <perf.json> [--diff <other.json>
//                      [--min-speedup X] [--tolerance F]]
//
// Default mode reads the Chrome trace written by `<bench> --trace <file>`
// one event per line (a trace cut off before its closing `]` reads the
// same), rebuilds the I/O profile from the kIo event stream, and prints:
//
//   1. per-layer event/byte totals,
//   2. a span-balance check (every 'B' must have a matching 'E'),
//   3. the Darshan-style job summary (prof::renderReport),
//   4. a write/handoff activity timeline (the Fig. 12 view of the run).
//
// --attr renders the blocked-time attribution written by `<bench> --attr
// <file>` (obs/attr.hpp): the exclusive per-phase partition, then the
// slowest rank (the one whose blocked time bounds the checkpoint's
// makespan) with its phases; with --diff it compares two runs (e.g. rbIO
// vs coIO) phase by phase and names each one's slowest rank. --waterfall
// renders the per-request causal-trace JSON written by `<bench> --optrace
// <file>`: hop-percentile tables (global and per op), the fan-in lineage
// summary, a p99-localization line, and ASCII hop waterfalls (--width N
// columns) for the retained tail (the N slowest requests) or, with --req
// ID, for one chosen request; --diff compares the hop-percentile tables of
// two runs (e.g. rbIO vs coIO). --runtime renders the wall-clock side of
// the perf record written by `paper --perf-json`: each --threads parallel
// region's jobs slowest first, with the serial-fraction / Amdahl-ceiling
// analysis, then the per-point wall table; --diff compares two records
// point by point. With --min-speedup X or --tolerance F the diff is a gate
// (exit 1 on failure): both records must hold the same runs (labels in
// order, identical event counts), and B's elapsed wall must be at most A's
// / X, or at most A's * (1 + F). Elapsed wall is each parallel region's
// wall plus the runs no region covers, so a --threads record is timed by
// its regions, not by per-run walls that overlap.
//
// Every JSON export the --attr, --waterfall and --runtime modes read must
// carry this build's version in its "schema" field, else exit 2.
#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "analysis/ascii.hpp"
#include "obs/attr.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/optrace.hpp"
#include "profiling/profile.hpp"
#include "profiling/report.hpp"

namespace {

using bgckpt::obs::json::Value;

struct LayerTotals {
  std::uint64_t events = 0;
  std::uint64_t bytes = 0;
  double busySeconds = 0;  // sum of 'X' durations
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <trace.json> [--bins N]\n"
               "       %s --attr <attr.json> [--diff <other.json>]\n"
               "       %s --waterfall <optrace.json> [--req ID |"
               " --diff <other.json>] [--width N]\n"
               "       %s --runtime <perf.json> [--diff <other.json>"
               " [--min-speedup X] [--tolerance F]]\n",
               argv0, argv0, argv0, argv0);
  return 2;
}

/// `s` read whole as an integer in [lo, hi]; false for anything else
/// ("10x", "abc", "", out of range), so a typo is a usage error rather
/// than its numeric prefix.
bool wholeInt(const char* s, long long lo, long long hi, long long& out) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE || v < lo || v > hi)
    return false;
  out = v;
  return true;
}

/// `s` read whole as a finite number; false for anything else ("2x", "abc").
bool wholeNumber(const char* s, double& out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !std::isfinite(v)) return false;
  out = v;
  return true;
}

bool loadJsonFile(const char* path, Value* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "trace_report: cannot open %s\n", path);
    return false;
  }
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::string err;
  auto doc = bgckpt::obs::json::parse(text, &err);
  if (!doc || !doc->isObject()) {
    std::fprintf(stderr, "trace_report: %s: %s\n", path,
                 err.empty() ? "not a JSON object" : err.c_str());
    return false;
  }
  *out = *doc;
  return true;
}

/// Load one artifact JSON behind the shared schema gate: the document's
/// "schema" field must be exactly `expectedSchema`. Every JSON-artifact
/// mode (--attr, --waterfall, --runtime) funnels through here, and every
/// failure funnels to the same caller exit-2 path.
bool loadGatedArtifact(const char* path, const char* kind,
                       const char* expectedSchema, Value* out) {
  if (!loadJsonFile(path, out)) return false;
  const std::string schema = out->stringOr("schema", "(none)");
  if (schema != expectedSchema) {
    std::fprintf(stderr,
                 "trace_report: %s: %s schema \"%s\" not supported "
                 "(this build reads \"%s\")\n",
                 path, kind, schema.c_str(), expectedSchema);
    return false;
  }
  return true;
}

/// Load one `--attr` export behind the schema gate into the report it was
/// written from (the export round-trips every number exactly).
bool readAttribution(const char* path,
                     bgckpt::obs::AttributionEngine::Report* out) {
  using bgckpt::obs::Phase;
  using bgckpt::obs::phaseName;
  Value doc;
  if (!loadGatedArtifact(path, "attr",
                         bgckpt::obs::AttributionEngine::kSchemaVersion, &doc))
    return false;
  out->horizon = doc.numberOr("horizon_seconds", 0);
  const Value* totals = doc.find("totals");
  const Value* ranks = doc.find("ranks");
  if (totals == nullptr || ranks == nullptr || !ranks->isArray()) {
    std::fprintf(stderr, "trace_report: %s: no \"totals\" or \"ranks\"\n",
                 path);
    return false;
  }
  for (int p = 0; p < bgckpt::obs::kNumPhases; ++p)
    out->totals[static_cast<std::size_t>(p)] =
        totals->numberOr(phaseName(static_cast<Phase>(p)), 0);
  for (const Value& rv : *ranks->array) {
    bgckpt::obs::AttributionEngine::RankSlice slice;
    slice.rank = static_cast<int>(rv.numberOr("rank", 0));
    for (int p = 0; p < bgckpt::obs::kNumPhases; ++p)
      slice.seconds[static_cast<std::size_t>(p)] =
          rv.numberOr(phaseName(static_cast<Phase>(p)), 0);
    out->ranks.push_back(slice);
  }
  return true;
}

/// One line naming the rank with the most blocked time (the lowest rank on
/// ties) and its non-zero phases, largest first: a checkpoint's makespan is
/// its slowest rank's blocked time, so this is what bounded the run.
void printSlowestRank(const char* prefix,
                      const bgckpt::obs::AttributionEngine::Report& report) {
  using bgckpt::obs::Phase;
  if (report.ranks.empty()) return;
  // max_element keeps the first of equals; ranks are in ascending order.
  const auto& slowest = *std::max_element(
      report.ranks.begin(), report.ranks.end(),
      [](const auto& x, const auto& y) { return x.blocked() < y.blocked(); });
  const auto seconds = [&](int p) {
    return slowest.seconds[static_cast<std::size_t>(p)];
  };
  std::vector<int> phases;
  for (int p = 0; p < bgckpt::obs::kNumPhases; ++p)
    if (p != static_cast<int>(Phase::kCompute) && seconds(p) > 0.0)
      phases.push_back(p);
  std::stable_sort(phases.begin(), phases.end(),
                   [&](int x, int y) { return seconds(x) > seconds(y); });
  std::printf("%sslowest rank %d: blocked %.3f s (", prefix, slowest.rank,
              slowest.blocked());
  for (std::size_t i = 0; i < phases.size(); ++i)
    std::printf("%s%s %.3f s", i > 0 ? ", " : "",
                bgckpt::obs::phaseName(static_cast<Phase>(phases[i])),
                seconds(phases[i]));
  std::printf(")\n");
}

int runAttrMode(const char* pathA, const char* pathB) {
  using bgckpt::obs::AttributionEngine;
  using bgckpt::obs::Phase;
  using bgckpt::obs::phaseName;
  AttributionEngine::Report a;
  if (!readAttribution(pathA, &a)) return 2;
  std::printf("blocked-time attribution: %s\n", pathA);
  std::printf("%zu ranks, horizon %.3f s, partition defect %.3g s\n",
              a.ranks.size(), a.horizon, a.partitionDefect());
  if (pathB == nullptr) {
    const double total = a.horizon * static_cast<double>(a.ranks.size());
    std::printf("\n%-13s %16s %9s\n", "phase", "proc-seconds", "share");
    for (int p = 0; p < bgckpt::obs::kNumPhases; ++p) {
      const double s = a.totals[static_cast<std::size_t>(p)];
      if (s <= 0.0) continue;
      std::printf("%-13s %16.3f %8.2f%%\n", phaseName(static_cast<Phase>(p)),
                  s, total > 0 ? s / total * 100.0 : 0.0);
    }
    std::printf("%-13s %16.3f %8.2f%%\n", "blocked", a.blockedSeconds(),
                total > 0 ? a.blockedSeconds() / total * 100.0 : 0.0);
    std::printf("\n");
    printSlowestRank("", a);
    return 0;
  }
  AttributionEngine::Report b;
  if (!readAttribution(pathB, &b)) return 2;
  std::printf("diff against: %s (%zu ranks, horizon %.3f s)\n", pathB,
              b.ranks.size(), b.horizon);
  std::printf("\n%-13s %16s %16s %16s\n", "phase", "A proc-sec", "B proc-sec",
              "A-B");
  for (int p = 0; p < bgckpt::obs::kNumPhases; ++p) {
    const double sa = a.totals[static_cast<std::size_t>(p)];
    const double sb = b.totals[static_cast<std::size_t>(p)];
    if (sa <= 0.0 && sb <= 0.0) continue;
    std::printf("%-13s %16.3f %16.3f %+16.3f\n",
                phaseName(static_cast<Phase>(p)), sa, sb, sa - sb);
  }
  std::printf("%-13s %16.3f %16.3f %+16.3f\n", "blocked", a.blockedSeconds(),
              b.blockedSeconds(), a.blockedSeconds() - b.blockedSeconds());
  if (b.blockedSeconds() > 0)
    std::printf("\nblocked-time ratio A/B: %.2fx\n",
                a.blockedSeconds() / b.blockedSeconds());
  std::printf("\n");
  printSlowestRank("A ", a);
  printSlowestRank("B ", b);
  return 0;
}

// ----------------------------------------------------- --waterfall mode --

struct HopRow {
  std::string hop;
  double requests = 0;
  double total = 0;
  double p50 = 0, p95 = 0, p99 = 0, max = 0;
};

struct E2eStats {
  double requests = 0;
  double mean = 0, p50 = 0, p95 = 0, p99 = 0, max = 0;
};

struct OpTraceDoc {
  Value doc;  // raw document; tail/sampled requests render from it
  double sampleEvery = 1;
  double horizon = 0;
  E2eStats e2e;
  std::vector<HopRow> hops;                              // global table
  std::vector<std::pair<std::string, E2eStats>> opE2e;   // per-op e2e
  std::vector<std::pair<std::string, std::vector<HopRow>>> opHops;
};

std::vector<HopRow> parseHopRows(const Value& parent) {
  std::vector<HopRow> out;
  const Value* arr = parent.find("hops");
  if (arr == nullptr || !arr->isArray()) return out;
  for (const Value& hv : *arr->array) {
    if (!hv.isObject()) continue;
    HopRow r;
    r.hop = hv.stringOr("hop", "?");
    r.requests = hv.numberOr("requests", 0);
    r.total = hv.numberOr("total_seconds", 0);
    r.p50 = hv.numberOr("p50", 0);
    r.p95 = hv.numberOr("p95", 0);
    r.p99 = hv.numberOr("p99", 0);
    r.max = hv.numberOr("max", 0);
    out.push_back(std::move(r));
  }
  return out;
}

E2eStats parseE2e(const Value& parent) {
  E2eStats s;
  const Value* ev = parent.find("e2e");
  if (ev == nullptr || !ev->isObject()) return s;
  s.requests = ev->numberOr("requests", 0);
  s.mean = ev->numberOr("mean", 0);
  s.p50 = ev->numberOr("p50", 0);
  s.p95 = ev->numberOr("p95", 0);
  s.p99 = ev->numberOr("p99", 0);
  s.max = ev->numberOr("max", 0);
  return s;
}

/// Load and validate one `--optrace` export behind the schema gate.
bool loadOpTrace(const char* path, OpTraceDoc* out) {
  if (!loadGatedArtifact(path, "optrace",
                         bgckpt::obs::OpTracer::kSchemaVersion, &out->doc))
    return false;
  out->sampleEvery = out->doc.numberOr("sample_every", 1);
  out->horizon = out->doc.numberOr("horizon", 0);
  out->e2e = parseE2e(out->doc);
  out->hops = parseHopRows(out->doc);
  if (const Value* ops = out->doc.find("ops"); ops && ops->isArray()) {
    for (const Value& ov : *ops->array) {
      if (!ov.isObject()) continue;
      const std::string op = ov.stringOr("op", "?");
      out->opE2e.emplace_back(op, parseE2e(ov));
      out->opHops.emplace_back(op, parseHopRows(ov));
    }
  }
  return true;
}

void printHopTable(const std::vector<HopRow>& hops) {
  std::printf("%-14s %10s %12s %10s %10s %10s %10s\n", "hop", "requests",
              "total-sec", "p50", "p95", "p99", "max");
  for (const HopRow& r : hops)
    std::printf("%-14s %10.0f %12.3f %10.4g %10.4g %10.4g %10.4g\n",
                r.hop.c_str(), r.requests, r.total, r.p50, r.p95, r.p99,
                r.max);
}

/// Print which hops dominate the e2e p99: the smallest prefix of hops
/// (sorted by p99 contribution) whose per-request p99 totals cover >= 80%
/// of the end-to-end p99, i.e. where the tail latency actually lives.
void printLocalization(const std::string& scope,
                       const std::vector<HopRow>& hops, double e2eP99) {
  if (e2eP99 <= 0 || hops.empty()) return;
  std::vector<const HopRow*> order;
  for (const HopRow& r : hops) order.push_back(&r);
  std::stable_sort(order.begin(), order.end(),
                   [](const HopRow* a, const HopRow* b) {
                     return a->p99 > b->p99;
                   });
  double cum = 0;
  std::string names;
  for (const HopRow* r : order) {
    if (r->p99 <= 0) break;
    cum += r->p99;
    if (!names.empty()) names += " + ";
    names += r->hop;
    if (cum >= 0.8 * e2eP99 || names.size() > 60) break;
  }
  std::printf("p99 localization (%s): %s = %.0f%% of e2e p99 (%.4g s)\n",
              scope.c_str(), names.c_str(), cum / e2eP99 * 100.0, e2eP99);
}

/// Render one traced request's hop waterfall from its exported spans.
void renderRequest(const Value& req, int width) {
  const double t0 = req.numberOr("t0", 0);
  const double e2e = req.numberOr("e2e", 0);
  std::printf("\nrequest %lld: op=%s rank=%d offset=%.0f bytes=%.0f "
              "t0=%.4f e2e=%.6g s",
              static_cast<long long>(req.numberOr("id", -1)),
              req.stringOr("op", "?").c_str(),
              static_cast<int>(req.numberOr("rank", -1)),
              req.numberOr("offset", 0), req.numberOr("bytes", 0), t0, e2e);
  if (const Value* fi = req.find("fan_in"); fi != nullptr)
    std::printf(" fan-in=%d", static_cast<int>(fi->number));
  if (const Value* pv = req.find("parent"); pv != nullptr)
    std::printf(" parent=%lld", static_cast<long long>(pv->number));
  if (req.find("unfinished") != nullptr) std::printf(" UNFINISHED");
  std::printf("\n");
  std::vector<bgckpt::analysis::WaterfallSpan> spans;
  if (const Value* sv = req.find("spans"); sv && sv->isArray()) {
    for (const Value& span : *sv->array) {
      if (!span.isObject()) continue;
      bgckpt::analysis::WaterfallSpan w;
      w.label = span.stringOr("hop", "?");
      w.start = span.numberOr("t0", 0);
      w.dur = span.numberOr("dur", 0);
      w.bytes = static_cast<std::uint64_t>(span.numberOr("bytes", 0));
      spans.push_back(std::move(w));
    }
  }
  std::printf("%s",
              bgckpt::analysis::waterfall(spans, t0, t0 + e2e, width).c_str());
}

/// Find a retained request (tail first, then sampled) by trace id.
const Value* findRequest(const Value& doc, long long id) {
  for (const char* key : {"tail", "sampled"}) {
    const Value* arr = doc.find(key);
    if (arr == nullptr || !arr->isArray()) continue;
    for (const Value& req : *arr->array) {
      if (!req.isObject()) continue;
      if (static_cast<long long>(req.numberOr("id", -1)) == id) return &req;
    }
  }
  return nullptr;
}

/// Tail requests rendered by default; --req renders exactly one.
constexpr int kDefaultWaterfalls = 3;

int runWaterfallMode(const char* pathA, const char* pathB, long long reqId,
                     int width) {
  OpTraceDoc a;
  if (!loadOpTrace(pathA, &a)) return 2;
  std::printf("op trace: %s\n", pathA);
  const Value* rv = a.doc.find("requests");
  if (rv != nullptr && rv->isObject())
    std::printf("%.0f requests minted, %.0f completed (%.0f unfinished), "
                "sampled 1 in %.0f (%.0f kept)\n",
                rv->numberOr("minted", 0), rv->numberOr("completed", 0),
                rv->numberOr("unfinished", 0), a.sampleEvery,
                rv->numberOr("sampled", 0));
  std::printf("horizon %.3f s\n", a.horizon);
  std::printf("e2e: mean %.4g, p50 %.4g, p95 %.4g, p99 %.4g, max %.4g s\n",
              a.e2e.mean, a.e2e.p50, a.e2e.p95, a.e2e.p99, a.e2e.max);
  if (const Value* lv = a.doc.find("lineage"); lv && lv->isObject()) {
    const Value* fv = lv->find("fan_in");
    std::printf("lineage: %.0f aggregates, %.0f edges, fan-in "
                "min/p50/max = %.0f/%.0f/%.0f\n",
                lv->numberOr("aggregates", 0), lv->numberOr("edges", 0),
                fv != nullptr ? fv->numberOr("min", 0) : 0,
                fv != nullptr ? fv->numberOr("p50", 0) : 0,
                fv != nullptr ? fv->numberOr("max", 0) : 0);
  }

  if (pathB != nullptr) {
    OpTraceDoc b;
    if (!loadOpTrace(pathB, &b)) return 2;
    std::printf("diff against: %s (e2e p50 %.4g, p99 %.4g s)\n", pathB,
                b.e2e.p50, b.e2e.p99);
    std::map<std::string, std::pair<const HopRow*, const HopRow*>> merged;
    for (const HopRow& r : a.hops) merged[r.hop].first = &r;
    for (const HopRow& r : b.hops) merged[r.hop].second = &r;
    std::printf("\n%-14s %10s %10s %10s %10s %10s %11s\n", "hop", "A p50",
                "B p50", "A p99", "B p99", "A-B p99", "A-B total");
    for (const auto& [hop, ab] : merged) {
      const HopRow* ra = ab.first;
      const HopRow* rb = ab.second;
      std::printf("%-14s %10.4g %10.4g %10.4g %10.4g %+10.4g %+11.4g\n",
                  hop.c_str(), ra != nullptr ? ra->p50 : 0.0,
                  rb != nullptr ? rb->p50 : 0.0, ra != nullptr ? ra->p99 : 0.0,
                  rb != nullptr ? rb->p99 : 0.0,
                  (ra != nullptr ? ra->p99 : 0.0) -
                      (rb != nullptr ? rb->p99 : 0.0),
                  (ra != nullptr ? ra->total : 0.0) -
                      (rb != nullptr ? rb->total : 0.0));
    }
    std::printf("%-14s %10.4g %10.4g %10.4g %10.4g %+10.4g\n", "(e2e)",
                a.e2e.p50, b.e2e.p50, a.e2e.p99, b.e2e.p99,
                a.e2e.p99 - b.e2e.p99);
    return 0;
  }

  std::printf("\nhop percentiles (per-request hop totals, seconds):\n");
  printHopTable(a.hops);
  for (const auto& [op, hops] : a.opHops) {
    E2eStats opE2e;
    for (const auto& [name, s] : a.opE2e)
      if (name == op) opE2e = s;
    std::printf("\nop \"%s\" (%.0f requests, e2e p50 %.4g, p99 %.4g s):\n",
                op.c_str(), opE2e.requests, opE2e.p50, opE2e.p99);
    printHopTable(hops);
    printLocalization("op " + op, hops, opE2e.p99);
  }
  std::printf("\n");
  printLocalization("all requests", a.hops, a.e2e.p99);

  if (reqId >= 0) {
    const Value* req = findRequest(a.doc, reqId);
    if (req == nullptr) {
      std::fprintf(stderr,
                   "trace_report: request %lld not retained (tail or "
                   "sampled) in %s\n",
                   reqId, pathA);
      return 1;
    }
    renderRequest(*req, width);
    return 0;
  }
  if (const Value* tail = a.doc.find("tail"); tail && tail->isArray()) {
    const auto n = std::min<std::size_t>(tail->array->size(),
                                         kDefaultWaterfalls);
    if (n > 0)
      std::printf("\ntail waterfalls (%zu slowest of %zu retained):\n", n,
                  tail->array->size());
    for (std::size_t i = 0; i < n; ++i)
      renderRequest((*tail->array)[i], width);
  }
  return 0;
}

// ------------------------------------------------------- --runtime mode --

/// A region's Amdahl decomposition: the serial fraction is the share of
/// total job work pinned in the single longest job. Independent jobs can
/// never finish before max(longest job, total work / T), so the speedup
/// ceiling is sum / max(maxJob, sum/T) — which tends to 1/s as T grows.
/// Printing the measured speedup next to the ceiling says whether the cap
/// is the workload (one dominant job) or the scheduler.
void renderRegion(std::size_t index, const Value& rv) {
  const auto threads = static_cast<unsigned>(rv.numberOr("threads", 1));
  const double wall = rv.numberOr("wall_seconds", 0);
  struct JobRow {
    std::size_t job = 0;
    double seconds = 0;
    std::string label;
  };
  std::vector<JobRow> rows;
  double sum = 0, maxJob = 0;
  if (const Value* jobs = rv.find("jobs"); jobs && jobs->isArray()) {
    for (const Value& jv : *jobs->array) {
      JobRow r;
      r.job = rows.size();
      r.seconds = jv.numberOr("wall_seconds", 0);
      r.label = jv.stringOr("label", "?");
      sum += r.seconds;
      maxJob = std::max(maxJob, r.seconds);
      rows.push_back(std::move(r));
    }
  }
  std::printf("\nparallel region %zu: %zu jobs on %u threads, wall %.3f s\n",
              index, rows.size(), threads, wall);
  std::stable_sort(rows.begin(), rows.end(), [](const JobRow& a,
                                                const JobRow& b) {
    return a.seconds > b.seconds;
  });
  std::printf("%6s %12s %8s  %s\n", "job", "wall-s", "share", "label");
  constexpr std::size_t kMaxJobRows = 20;
  for (std::size_t i = 0; i < rows.size() && i < kMaxJobRows; ++i) {
    const JobRow& r = rows[i];
    std::printf("%6zu %12.3f %7.1f%%  %s\n", r.job, r.seconds,
                sum > 0 ? r.seconds / sum * 100.0 : 0.0, r.label.c_str());
  }
  if (rows.size() > kMaxJobRows)
    std::printf("  ... %zu more job(s)\n", rows.size() - kMaxJobRows);
  if (sum > 0 && wall > 0 && threads > 0) {
    const double s = maxJob / sum;
    const double floor = std::max(maxJob, sum / static_cast<double>(threads));
    const double ceiling = floor > 0 ? sum / floor : 0.0;
    const double speedup = sum / wall;
    std::printf("critical point: %s (%.3f s, %.0f%% of region wall)\n",
                rows.front().label.c_str(), maxJob, maxJob / wall * 100.0);
    std::printf("parallel efficiency: speedup %.2fx of %u threads (%.1f%%); "
                "serial fraction %.2f -> Amdahl ceiling %.2fx\n",
                speedup, threads,
                speedup / static_cast<double>(threads) * 100.0, s, ceiling);
  }
}

/// The "runs" array of a perf record, or nullptr.
const Value* perfRuns(const Value& doc) {
  const Value* runs = doc.find("runs");
  return runs != nullptr && runs->isArray() ? runs : nullptr;
}

/// Wall-clock seconds a perf record took end to end: each parallel
/// region's wall, plus the wall of every run no region's jobs cover (the
/// run record of a scenario in a region repeats its job's label). Per-run
/// walls of scenarios simulated in parallel overlap, so their sum is not
/// the time taken.
double elapsedWall(const Value& doc) {
  std::map<std::string, int> covered;  // label -> region jobs not yet matched
  double wall = 0;
  if (const Value* regions = doc.find("parallel_regions");
      regions != nullptr && regions->isArray()) {
    for (const Value& rv : *regions->array) {
      wall += rv.numberOr("wall_seconds", 0);
      if (const Value* jobs = rv.find("jobs"); jobs && jobs->isArray())
        for (const Value& jv : *jobs->array)
          ++covered[jv.stringOr("label", "?")];
    }
  }
  if (const Value* runs = perfRuns(doc)) {
    for (const Value& rv : *runs->array) {
      int& left = covered[rv.stringOr("label", "?")];
      if (left > 0)
        --left;
      else
        wall += rv.numberOr("wall_seconds", 0);
    }
  }
  return wall;
}

/// The --min-speedup / --tolerance gate over two perf records of the same
/// workload: the same runs in the same order with identical event counts
/// (the simulation is deterministic, so one event of drift is a change in
/// the work done), and B's elapsed wall within the bound. `minSpeedup` <= 0
/// and `tolerance` < 0 turn their bound off. Returns the exit code.
int gateRuntime(const Value& a, const Value& b, double minSpeedup,
                double tolerance) {
  int failures = 0;
  const Value* runsA = perfRuns(a);
  const Value* runsB = perfRuns(b);
  const std::size_t nA = runsA != nullptr ? runsA->array->size() : 0;
  const std::size_t nB = runsB != nullptr ? runsB->array->size() : 0;
  std::printf("\n");
  if (nA == 0 || nA != nB) {
    std::printf("runtime gate [FAIL]: %zu run(s) vs %zu; both records must "
                "hold the same runs\n",
                nA, nB);
    ++failures;
  } else {
    std::size_t same = 0;
    for (std::size_t i = 0; i < nA; ++i) {
      const Value& ra = (*runsA->array)[i];
      const Value& rb = (*runsB->array)[i];
      const std::string labelA = ra.stringOr("label", "?");
      const std::string labelB = rb.stringOr("label", "?");
      const double evA = ra.numberOr("events", -1);
      const double evB = rb.numberOr("events", -1);
      if (labelA == labelB && evA == evB && evA >= 0) {
        ++same;
        continue;
      }
      std::printf("runtime gate [FAIL]: run %zu: \"%s\" %.0f events vs "
                  "\"%s\" %.0f events\n",
                  i, labelA.c_str(), evA, labelB.c_str(), evB);
      ++failures;
    }
    if (same == nA)
      std::printf("runtime gate [OK]: %zu runs, labels and event counts "
                  "identical\n",
                  nA);
  }
  const double wallA = elapsedWall(a);
  const double wallB = elapsedWall(b);
  if (minSpeedup > 0) {
    const double speedup = wallB > 0 ? wallA / wallB : 0.0;
    const bool pass = speedup >= minSpeedup;
    std::printf("runtime gate [%s]: elapsed wall %.3f s -> %.3f s, speedup "
                "%.2fx (required >= %.2fx)\n",
                pass ? "OK" : "FAIL", wallA, wallB, speedup, minSpeedup);
    failures += pass ? 0 : 1;
  }
  if (tolerance >= 0) {
    const bool pass = wallB <= wallA * (1 + tolerance);
    std::printf("runtime gate [%s]: elapsed wall %.3f s -> %.3f s (%+.1f%%, "
                "tolerance +%.1f%%)\n",
                pass ? "OK" : "FAIL", wallA, wallB,
                wallA > 0 ? (wallB - wallA) / wallA * 100.0 : 0.0,
                tolerance * 100.0);
    failures += pass ? 0 : 1;
  }
  return failures == 0 ? 0 : 1;
}

int runRuntimeMode(const char* pathA, const char* pathB, double minSpeedup,
                   double tolerance) {
  using bgckpt::obs::kPerfSchemaVersion;
  Value a;
  if (!loadGatedArtifact(pathA, "perf", kPerfSchemaVersion, &a)) return 2;
  std::printf("runtime profile: %s\n", pathA);
  const Value* regionsA = a.find("parallel_regions");
  const Value* runsA = perfRuns(a);
  const std::size_t nRegions =
      regionsA != nullptr && regionsA->isArray() ? regionsA->array->size() : 0;
  const std::size_t nRuns = runsA != nullptr ? runsA->array->size() : 0;
  std::printf("%zu parallel region(s), %zu run record(s)\n", nRegions, nRuns);

  if (pathB != nullptr) {
    Value b;
    if (!loadGatedArtifact(pathB, "perf", kPerfSchemaVersion, &b)) return 2;
    std::printf("diff against: %s\n", pathB);
    // Point-by-point wall comparison (labels are deterministic, so they
    // line up across runs whatever the thread counts were).
    std::map<std::string, std::pair<double, double>> points;
    const auto collect = [&points](const Value& doc, bool first) {
      const Value* runs = perfRuns(doc);
      if (runs == nullptr) return;
      for (const Value& rv : *runs->array) {
        auto& slot = points[rv.stringOr("label", "?")];
        (first ? slot.first : slot.second) += rv.numberOr("wall_seconds", 0);
      }
    };
    collect(a, true);
    collect(b, false);
    if (!points.empty()) {
      std::printf("\n%-40s %12s %12s %8s\n", "point", "A wall-s", "B wall-s",
                  "B/A");
      for (const auto& [label, ab] : points)
        std::printf("%-40s %12.3f %12.3f %7.2fx\n", label.c_str(), ab.first,
                    ab.second,
                    ab.first > 0 ? ab.second / ab.first : 0.0);
    }
    if (minSpeedup > 0 || tolerance >= 0)
      return gateRuntime(a, b, minSpeedup, tolerance);
    return 0;
  }

  for (std::size_t r = 0; r < nRegions; ++r)
    renderRegion(r, (*regionsA->array)[r]);
  if (nRuns > 0) {
    std::printf("\n%-40s %12s %14s %10s\n", "point", "wall-s", "events",
                "Mev/s");
    for (const Value& rv : *runsA->array) {
      const double wall = rv.numberOr("wall_seconds", 0);
      const double events = rv.numberOr("events", 0);
      std::printf("%-40s %12.3f %14.0f %10.2f\n",
                  rv.stringOr("label", "?").c_str(), wall, events,
                  wall > 0 ? events / wall / 1e6 : 0.0);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = nullptr;
  const char* diffPath = nullptr;
  double tolerance = -1;
  double minSpeedup = 0;
  int bins = 60;
  int width = 72;
  long long reqId = -1;
  enum class Mode {
    kSummary,
    kAttr,
    kWaterfall,
    kRuntime
  } mode = Mode::kSummary;
  for (int i = 1; i < argc; ++i) {
    long long n = 0;
    if (std::strcmp(argv[i], "--bins") == 0 && i + 1 < argc) {
      if (!wholeInt(argv[++i], 1, INT_MAX, n)) return usage(argv[0]);
      bins = static_cast<int>(n);
    } else if (std::strcmp(argv[i], "--width") == 0 && i + 1 < argc) {
      if (!wholeInt(argv[++i], 1, INT_MAX, n)) return usage(argv[0]);
      width = static_cast<int>(n);
    } else if (std::strcmp(argv[i], "--req") == 0 && i + 1 < argc) {
      if (!wholeInt(argv[++i], 0, LLONG_MAX, reqId)) return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--attr") == 0) {
      mode = Mode::kAttr;
    } else if (std::strcmp(argv[i], "--waterfall") == 0) {
      mode = Mode::kWaterfall;
    } else if (std::strcmp(argv[i], "--runtime") == 0) {
      mode = Mode::kRuntime;
    } else if (std::strcmp(argv[i], "--tolerance") == 0 && i + 1 < argc) {
      if (!wholeNumber(argv[++i], tolerance) || tolerance < 0)
        return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--min-speedup") == 0 && i + 1 < argc) {
      if (!wholeNumber(argv[++i], minSpeedup) || !(minSpeedup > 0))
        return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--diff") == 0 && i + 1 < argc) {
      diffPath = argv[++i];
    } else if (argv[i][0] == '-') {
      return usage(argv[0]);
    } else {
      path = argv[i];
    }
  }
  if (!path) return usage(argv[0]);
  if (diffPath != nullptr && mode == Mode::kSummary) return usage(argv[0]);
  if (reqId >= 0 && (mode != Mode::kWaterfall || diffPath != nullptr))
    return usage(argv[0]);
  // The runtime gate's bounds need a record to compare against.
  if ((minSpeedup > 0 || tolerance >= 0) &&
      (mode != Mode::kRuntime || diffPath == nullptr))
    return usage(argv[0]);
  if (mode == Mode::kAttr) return runAttrMode(path, diffPath);
  if (mode == Mode::kWaterfall)
    return runWaterfallMode(path, diffPath, reqId, width);
  if (mode == Mode::kRuntime)
    return runRuntimeMode(path, diffPath, minSpeedup, tolerance);

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "trace_report: cannot open %s\n", path);
    return 2;
  }

  std::map<std::string, LayerTotals> layers;
  // Open 'B' spans per (layer, tid, name); drained by matching 'E's.
  std::map<std::string, std::uint64_t> openSpans;
  std::uint64_t parseErrors = 0, events = 0, unmatchedEnds = 0;
  bgckpt::prof::IoProfile profile;
  double horizon = 0;
  int maxRank = -1;

  std::string line;
  while (std::getline(in, line)) {
    // One trace_event object per line, each but the last followed by a
    // comma, between "[" and "]" (absent when a violation aborted the run).
    if (!line.empty() && line.back() == ',') line.pop_back();
    if (line.empty() || line == "[" || line == "]") continue;
    std::string err;
    const auto doc = bgckpt::obs::json::parse(line, &err);
    if (!doc || !doc->isObject()) {
      ++parseErrors;
      continue;
    }
    const std::string ph = doc->stringOr("ph", "X");
    if (ph == "M") continue;  // process / thread names
    ++events;
    const std::string cat = doc->stringOr("cat", "?");
    const std::string name = doc->stringOr("name", "?");
    // The Chrome stream counts microseconds; everything below is seconds.
    const double ts = doc->numberOr("ts", 0) / 1e6;
    const double dur = doc->numberOr("dur", 0) / 1e6;
    const Value* args = doc->find("args");
    const auto bytes = static_cast<std::uint64_t>(
        args != nullptr ? args->numberOr("bytes", 0) : 0);
    const int tid = static_cast<int>(doc->numberOr("tid", 0));

    auto& lt = layers[cat];
    ++lt.events;
    lt.bytes += bytes;
    horizon = std::max(horizon, ts + dur);

    if (ph == "B" || ph == "E") {
      const std::string key =
          cat + "/" + std::to_string(tid) + "/" + name;
      if (ph == "B") {
        ++openSpans[key];
      } else {
        auto it = openSpans.find(key);
        if (it == openSpans.end() || it->second == 0)
          ++unmatchedEnds;
        else if (--it->second == 0)
          openSpans.erase(it);
      }
    }
    if (ph == "X") {
      lt.busySeconds += dur;
      if (cat == "io") {
        if (const auto op = bgckpt::prof::opFromName(name)) {
          profile.record(tid, *op, ts, ts + dur, bytes);
          maxRank = std::max(maxRank, tid);
        }
      }
      if (cat == "app") maxRank = std::max(maxRank, tid);
    }
  }

  std::printf("trace_report: %s\n", path);
  std::printf("%" PRIu64 " events on %zu layers, horizon %.3f s\n",
              events, layers.size(), horizon);
  if (parseErrors)
    std::printf("WARNING: %" PRIu64 " unparseable lines\n", parseErrors);

  std::printf("\n%-12s %12s %16s %14s\n", "layer", "events", "bytes",
              "busy-seconds");
  for (const auto& [cat, lt] : layers)
    std::printf("%-12s %12" PRIu64 " %16" PRIu64 " %14.3f\n", cat.c_str(),
                lt.events, lt.bytes, lt.busySeconds);

  std::uint64_t stillOpen = 0;
  for (const auto& [key, n] : openSpans) stillOpen += n;
  const bool balanced = stillOpen == 0 && unmatchedEnds == 0;
  std::printf("\nspan balance: %s (%" PRIu64 " unclosed, %" PRIu64
              " unmatched ends)\n",
              balanced ? "OK" : "BROKEN", stillOpen, unmatchedEnds);

  if (!profile.records().empty()) {
    bgckpt::prof::ReportOptions opt;
    opt.numRanks = maxRank + 1;
    opt.jobName = "trace";
    std::printf("\n%s", bgckpt::prof::renderReport(profile, opt).c_str());

    const double binWidth = horizon / bins;
    std::vector<std::string> names;
    std::vector<std::vector<int>> series;
    using bgckpt::prof::Op;
    for (const Op op : {Op::kWrite, Op::kCreate, Op::kSend, Op::kRecv}) {
      auto counts = profile.activityTimeline(op, binWidth, horizon);
      if (std::any_of(counts.begin(), counts.end(),
                      [](int c) { return c > 0; })) {
        names.emplace_back(bgckpt::prof::opName(op));
        series.push_back(std::move(counts));
      }
    }
    if (!series.empty())
      std::printf("\nactivity timeline (ranks active per bin):\n%s",
                  bgckpt::analysis::activityStrip(names, series, binWidth)
                      .c_str());
  }

  return balanced && parseErrors == 0 ? 0 : 1;
}
