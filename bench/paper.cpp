// The paper driver: every figure, table and equation of the reproduction
// as one table of figures in one executable.
//
//   paper [FIGURE...] [FLAG...]      (no FIGURE = all, in table order)
//
// A figure is the list of Scenarios (simulated runs) it reads plus a render
// function that prints its section and returns its SHAPE CHECKs. Figs. 5-7,
// 9 and 12 and several tables are views of the same checkpoints, so the
// driver unions the selected figures' scenarios, drops repeats, simulates
// each distinct one once (kind by kind, largest np first, on --threads
// workers), then renders every figure in table order. Flags are documented at
// bench::Flags in common.hpp. Exits 1 if any SHAPE CHECK fails.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "analysis/ascii.hpp"
#include "analysis/checkpoint_interval.hpp"
#include "analysis/models.hpp"
#include "iolib/campaign.hpp"
#include "iolib/multilevel.hpp"
#include "nekcem/maxwell.hpp"
#include "nekcem/perf_model.hpp"
#include "obs/attr.hpp"
#include "profiling/report.hpp"
#include "simcore/stats.hpp"

namespace bgckpt::bench {
namespace {

struct Check {
  std::string name;
  bool pass = false;
  std::string detail;
};

void banner(const std::string& artifact, const std::string& description) {
  std::printf("\n====================================================================\n");
  std::printf("%s\n", artifact.c_str());
  std::printf("Fu, Min, Latham, Carothers - \"Parallel I/O Performance for\n");
  std::printf("Application-Level Checkpointing on the Blue Gene/P System\" (2011)\n");
  std::printf("%s\n", description.c_str());
  std::printf("====================================================================\n");
}

/// Print one figure's checks; returns how many failed.
int printChecks(const std::vector<Check>& checks) {
  int failures = 0;
  std::printf("\n");
  for (const auto& c : checks) {
    std::printf("SHAPE CHECK [%s]: %s (%s)\n", c.pass ? "PASS" : "FAIL",
                c.name.c_str(), c.detail.c_str());
    if (!c.pass) ++failures;
  }
  std::printf("%d/%zu shape checks passed\n",
              static_cast<int>(checks.size()) - failures, checks.size());
  return failures;
}

/// Format helpers.
std::string gbs(double bytesPerSecond) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f GB/s", bytesPerSecond / 1e9);
  return buf;
}

std::string secs(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f s", seconds);
  return buf;
}

/// The five approaches of Figs. 5-7, in the paper's legend order.
struct Approach {
  std::string name;
  iolib::StrategyConfig cfg;
};
std::vector<Approach> paperApproaches(int np) {
  using iolib::StrategyConfig;
  return {
      {"1PFPP", StrategyConfig::onePfpp()},
      {"coIO, nf=1", StrategyConfig::coIo(1)},
      {"coIO, np:nf=64:1", StrategyConfig::coIo(np / 64)},
      {"rbIO, 64:1, nf=1", StrategyConfig::rbIo(64, false)},
      {"rbIO, 64:1, nf=ng", StrategyConfig::rbIo(64, true)},
  };
}

/// The paper's weak-scaling checkpoint (Section V-B) of `np` ranks on the
/// default Intrepid stack, written with `strategy`.
Scenario weakScaling(int np, const iolib::StrategyConfig& strategy) {
  return {np, {}, iolib::CheckpointSpec::nekcemWeakScaling(np), strategy};
}

/// The Figs. 5-7 matrix: every paper approach at every scale.
std::vector<Scenario> paperMatrix(const std::vector<int>& scales) {
  std::vector<Scenario> out;
  for (int np : scales)
    for (const auto& a : paperApproaches(np))
      out.push_back(weakScaling(np, a.cfg));
  return out;
}

/// The paper's weak-scaling scales (Section V-B).
const std::vector<int> kScales = {16384, 32768, 65536};

/// The paper's tuned configurations at `np` ranks: rbIO np:ng = 64:1 with
/// nf = ng, and coIO np:nf = 64:1.
Scenario rbIo64(int np) {
  return weakScaling(np, iolib::StrategyConfig::rbIo(64, true));
}
Scenario coIo64(int np) {
  return weakScaling(np, iolib::StrategyConfig::coIo(np / 64));
}

// Figure 5: write bandwidth of the five I/O approaches as a function of
// processor count, on the simulated Intrepid GPFS under normal load.
// Problem sizes (np, n, S) = (16K, 275M, ~39GB), (32K, 550M, ~78GB),
// (64K, 1.1B, ~157GB).
namespace fig5 {
// --max-np N: smoke mode for slow (sanitizer) builds — run only the
// scales up to N. Shape checks need all three scales, so they are skipped;
// the run still exercises every approach end-to-end.
std::vector<int> scalesUpTo(int maxNp) {
  std::vector<int> scales = kScales;
  std::erase_if(scales, [&](int np) { return np > maxNp; });
  if (scales.empty()) {
    std::fprintf(stderr, "error: --max-np %d leaves no scales to run\n",
                 maxNp);
    std::exit(2);
  }
  return scales;
}

std::vector<Check> render(const Flags& flags, const Results& res) {
  const std::vector<int> scales = scalesUpTo(flags.maxNp);
  banner("Figure 5 - write performance with NekCEM on Intrepid GPFS",
         "Bandwidth = total data / wall time of the slowest processor.");
  const bool smoke = scales.size() < 3;
  // Approximate values read from the published figure, for side-by-side
  // comparison (absolute agreement is not the goal; the shape is).
  const std::map<std::string, std::vector<double>> paperGbs = {
      {"1PFPP", {0.15, 0.10, 0.08}},
      {"coIO, nf=1", {4.5, 5.0, 6.0}},
      {"coIO, np:nf=64:1", {10.5, 12.5, 9.0}},
      {"rbIO, 64:1, nf=1", {4.0, 5.0, 6.5}},
      {"rbIO, 64:1, nf=ng", {9.0, 13.0, 16.0}},
  };

  std::map<std::string, std::map<int, double>> bw;  // name -> np -> GB/s
  for (int np : scales) {
    std::printf("\n-- np = %d --\n", np);
    std::vector<analysis::Bar> bars;
    for (const auto& a : paperApproaches(np)) {
      const auto& r = res.at(weakScaling(np, a.cfg));
      bw[a.name][np] = r.bandwidth;
      bars.push_back({a.name, r.bandwidth / 1e9});
      std::printf("  %-20s  measured %-12s  paper ~%5.2f GB/s  (makespan %s)\n",
                  a.name.c_str(), gbs(r.bandwidth).c_str(),
                  paperGbs.at(a.name)[static_cast<std::size_t>(
                      np == 16384 ? 0 : (np == 32768 ? 1 : 2))],
                  secs(r.makespan).c_str());
    }
    std::printf("%s", analysis::barChart(bars, "GB/s").c_str());
  }

  std::vector<Check> checks;
  if (smoke) {
    std::printf("\n--max-np smoke run: shape checks skipped (need all three "
                "scales)\n");
    return checks;
  }

  auto at = [&](const char* name, int np) { return bw.at(name).at(np); };
  checks.push_back(
      {"rbIO nf=ng >= coIO 64:1 at 64K (rbIO scales best)",
       at("rbIO, 64:1, nf=ng", 65536) >= at("coIO, np:nf=64:1", 65536),
       gbs(at("rbIO, 64:1, nf=ng", 65536)) + " vs " +
           gbs(at("coIO, np:nf=64:1", 65536))});
  checks.push_back({"rbIO nf=ng > 13 GB/s at 64K (paper: 'over 13 GB/s')",
                    at("rbIO, 64:1, nf=ng", 65536) > 13e9,
                    gbs(at("rbIO, 64:1, nf=ng", 65536))});
  bool tenX = true;
  for (int np : scales)
    tenX = tenX && at("rbIO, 64:1, nf=ng", np) > 10 * at("1PFPP", np) &&
           at("coIO, np:nf=64:1", np) > 10 * at("1PFPP", np);
  checks.push_back({"tuned approaches beat 1PFPP by >10x at every scale",
                    tenX, "rbIO/coIO vs 1PFPP"});
  bool splitWins = true;
  for (int np : scales)
    splitWins = splitWins && at("coIO, np:nf=64:1", np) > at("coIO, nf=1", np);
  checks.push_back(
      {"split collectives beat the single shared file (coIO 64:1 > nf=1)",
       splitWins, "all scales"});
  checks.push_back(
      {"coIO 64:1 drops at 64K (the paper's 'significant performance drop')",
       at("coIO, np:nf=64:1", 65536) < at("coIO, np:nf=64:1", 32768),
       gbs(at("coIO, np:nf=64:1", 65536)) + " vs " +
           gbs(at("coIO, np:nf=64:1", 32768)) + " at 32K"});
  bool similar = true;
  for (int np : scales) {
    const double a = at("rbIO, 64:1, nf=1", np);
    const double b = at("coIO, nf=1", np);
    similar = similar && a < 2.5 * b && b < 2.5 * a;
  }
  checks.push_back(
      {"rbIO nf=1 ~ coIO nf=1 (application two-phase does not interfere "
       "with MPI-IO two-phase)",
       similar, "within 2.5x at all scales"});
  bool rbGrows = at("rbIO, 64:1, nf=ng", 16384) <
                     at("rbIO, 64:1, nf=ng", 32768) &&
                 at("rbIO, 64:1, nf=ng", 32768) <
                     at("rbIO, 64:1, nf=ng", 65536);
  checks.push_back({"rbIO nf=ng bandwidth grows with scale", rbGrows,
                    "16K < 32K < 64K"});
  checks.push_back(
      {"rbIO nf=ng ~2x rbIO nf=1 (less file locking overhead)",
       at("rbIO, 64:1, nf=ng", 16384) > 1.5 * at("rbIO, 64:1, nf=1", 16384),
       gbs(at("rbIO, 64:1, nf=ng", 16384)) + " vs " +
           gbs(at("rbIO, 64:1, nf=1", 16384))});
  return checks;
}

std::vector<Scenario> scenarios(const Flags& flags) {
  return paperMatrix(scalesUpTo(flags.maxNp));
}
}  // namespace fig5

// Figure 6: overall wall time per checkpointing step (log scale) for the
// five I/O approaches at 16K/32K/64K processors.
namespace fig6 {
std::vector<Check> render(const Flags&, const Results& res) {
  banner("Figure 6 - overall time per checkpointing step",
         "Seconds per coordinated checkpoint; log-scaled bars. The paper's "
         "headline: ~100x reduction vs 1PFPP.");

  std::map<std::string, std::map<int, double>> t;
  for (int np : kScales) {
    std::printf("\n-- np = %d --\n", np);
    std::vector<analysis::Bar> bars;
    for (const auto& a : paperApproaches(np)) {
      const auto& r = res.at(weakScaling(np, a.cfg));
      t[a.name][np] = r.makespan;
      bars.push_back({a.name, r.makespan});
      std::printf("  %-20s %10.2f s\n", a.name.c_str(), r.makespan);
    }
    std::printf("%s", analysis::barChart(bars, "s", 52, /*logScale=*/true).c_str());
  }

  auto at = [&](const char* name, int np) { return t.at(name).at(np); };
  std::vector<Check> checks;
  for (int np : {32768, 65536}) {
    const double ratio = at("1PFPP", np) / at("rbIO, 64:1, nf=ng", np);
    checks.push_back(
        {"~100x improvement over 1PFPP at np=" + std::to_string(np),
         ratio > 50 && ratio < 500,
         "measured " + std::to_string(ratio) + "x"});
  }
  // "The relatively flat time bars for rbIO" - weak scaling holds: time
  // grows far slower than the 4x data growth from 16K to 64K.
  const double rbGrowth =
      at("rbIO, 64:1, nf=ng", 65536) / at("rbIO, 64:1, nf=ng", 16384);
  checks.push_back({"rbIO nf=ng time stays relatively flat 16K->64K",
                    rbGrowth < 2.5,
                    "grew " + std::to_string(rbGrowth) + "x for 4x data"});
  const double pfppGrowth = at("1PFPP", 65536) / at("1PFPP", 16384);
  checks.push_back({"1PFPP time balloons with scale", pfppGrowth > 3.0,
                    "grew " + std::to_string(pfppGrowth) + "x"});
  checks.push_back({"1PFPP exceeds 100 s per checkpoint at 16K+",
                    at("1PFPP", 16384) > 100,
                    secs(at("1PFPP", 16384))});
  return checks;
}

std::vector<Scenario> scenarios(const Flags&) { return paperMatrix(kScales); }
}  // namespace fig6

// Figure 7: ratio of checkpoint time per I/O step over computation time per
// single time step. Computation time comes from the calibrated NekCEM
// performance model (weak scaling keeps it ~constant across 16K-64K). For
// rbIO the checkpoint time is the writers' completion time — workers return
// to computation after a nonblocking send, so the writers' drain is what an
// application must amortise between checkpoints.
namespace fig7 {
std::vector<Check> render(const Flags&, const Results& res) {
  banner("Figure 7 - T(checkpoint) / T(computation step)",
         "Smaller is better; rbIO stays flat while 1PFPP exceeds 1000.");

  nekcem::PerfModel perf;
  const double tComp = perf.weakScalingStepSeconds();
  std::printf("computation time per step (model, n/P = 17000, N = 15): %.3f s\n",
              tComp);

  std::map<std::string, std::map<int, double>> ratio;
  for (int np : kScales) {
    std::printf("\n-- np = %d --\n", np);
    std::vector<analysis::Bar> bars;
    for (const auto& a : paperApproaches(np)) {
      const auto& r = res.at(weakScaling(np, a.cfg));
      const bool rbio = a.name.find("rbIO") != std::string::npos;
      const double tc = rbio ? r.writerMakespan : r.makespan;
      ratio[a.name][np] = tc / tComp;
      bars.push_back({a.name, tc / tComp});
      std::printf("  %-20s Tc=%9.2f s  ratio %10.1f\n", a.name.c_str(), tc,
                  tc / tComp);
    }
    std::printf("%s", analysis::barChart(bars, "x", 52, /*logScale=*/true).c_str());
  }

  auto at = [&](const char* name, int np) { return ratio.at(name).at(np); };
  std::vector<Check> checks;
  checks.push_back({"1PFPP ratio above 1000 at 32K+ (paper: 'generally above 1000')",
                    at("1PFPP", 32768) > 1000 && at("1PFPP", 65536) > 1000,
                    std::to_string(at("1PFPP", 32768)) + ", " +
                        std::to_string(at("1PFPP", 65536))});
  bool rbSmall = true;
  for (int np : kScales) rbSmall = rbSmall && at("rbIO, 64:1, nf=ng", np) < 45;
  checks.push_back({"rbIO nf=ng ratio stays small (paper: 'under 20')",
                    rbSmall, "all scales < 45 in our calibration"});
  const double flatness = at("rbIO, 64:1, nf=ng", 65536) /
                          at("rbIO, 64:1, nf=ng", 16384);
  checks.push_back({"rbIO ratio stays flat across scales", flatness < 2.5,
                    std::to_string(flatness) + "x from 16K to 64K"});
  // At 16K the paper's own Fig. 5 has coIO 64:1 ahead of rbIO; the rbIO
  // advantage appears at scale, so the ordering claim applies at 64K.
  const bool ordering =
      at("rbIO, 64:1, nf=ng", 65536) < at("coIO, np:nf=64:1", 65536) &&
      at("coIO, np:nf=64:1", 65536) < at("1PFPP", 65536);
  checks.push_back({"ratio ordering rbIO < coIO 64:1 < 1PFPP at 64K",
                    ordering, "64K ranks"});
  bool rbBeatsPfpp = true;
  for (int np : kScales)
    rbBeatsPfpp = rbBeatsPfpp &&
                  at("rbIO, 64:1, nf=ng", np) * 20 < at("1PFPP", np);
  checks.push_back({"rbIO ratio at least 20x below 1PFPP everywhere",
                    rbBeatsPfpp, "all scales"});
  return checks;
}

std::vector<Scenario> scenarios(const Flags&) { return paperMatrix(kScales); }
}  // namespace fig7

// Figure 8: rbIO (nf=ng) bandwidth as a function of the number of files,
// for 16K/32K/64K processors. The paper's observation: the GPFS deployment
// on Intrepid prefers ~1024 concurrently-written files at every scale —
// too few files underuse the per-stream service slots, too many thrash the
// storage arrays and the directory metadata.
namespace fig8 {
const std::vector<int> kFiles = {256, 512, 1024, 2048, 4096};

/// rbIO writing nf files at np ranks: np:ng = (np / nf):1, nf = ng.
Scenario sweepPoint(int np, int nf) {
  return weakScaling(np, iolib::StrategyConfig::rbIo(np / nf, true));
}

std::vector<Check> render(const Flags&, const Results& res) {
  banner("Figure 8 - rbIO write performance vs number of files",
         "rbIO with nf = ng, sweeping the writer-group ratio.");

  std::map<int, std::map<int, double>> bw;  // np -> nf -> GB/s

  for (int np : kScales) {
    std::printf("\n-- np = %d --\n", np);
    std::vector<analysis::Bar> bars;
    for (int nf : kFiles) {
      const int groupSize = np / nf;
      if (groupSize < 2) continue;
      const auto& r = res.at(sweepPoint(np, nf));
      bw[np][nf] = r.bandwidth;
      bars.push_back({"nf=" + std::to_string(nf), r.bandwidth / 1e9});
      std::printf("  nf=%5d (np:ng=%3d:1)  %-12s  makespan %s\n", nf,
                  groupSize, gbs(r.bandwidth).c_str(),
                  secs(r.makespan).c_str());
    }
    std::printf("%s", analysis::barChart(bars, "GB/s").c_str());
  }

  std::vector<Check> checks;
  for (int np : kScales) {
    int best = 0;
    double bestBw = 0;
    for (const auto& [nf, v] : bw[np])
      if (v > bestBw) {
        bestBw = v;
        best = nf;
      }
    checks.push_back({"optimum at nf=1024 for np=" + std::to_string(np),
                      best == 1024,
                      "best nf=" + std::to_string(best) + " at " +
                          gbs(bestBw)});
  }
  for (int np : kScales) {
    checks.push_back(
        {"too few files underperform at np=" + std::to_string(np),
         bw[np][256] < 0.8 * bw[np][1024],
         gbs(bw[np][256]) + " vs " + gbs(bw[np][1024])});
    checks.push_back(
        {"too many files underperform at np=" + std::to_string(np),
         bw[np][4096] < 0.9 * bw[np][1024],
         gbs(bw[np][4096]) + " vs " + gbs(bw[np][1024])});
  }
  return checks;
}

std::vector<Scenario> scenarios(const Flags&) {
  std::vector<Scenario> out;
  for (int np : kScales)
    for (int nf : kFiles)
      if (np / nf >= 2) out.push_back(sweepPoint(np, nf));
  return out;
}
}  // namespace fig8

// Figure 9: per-processor I/O time distribution for one 1PFPP checkpoint
// on 16,384 processors. The metadata storm of creating 16K files in one
// directory serialises ranks: some finish within seconds, others take more
// than 300 seconds.
namespace fig9 {
constexpr int kNp = 16384;

Scenario onePfpp() {
  return weakScaling(kNp, iolib::StrategyConfig::onePfpp());
}

std::vector<Check> render(const Flags&, const Results& res) {
  banner("Figure 9 - I/O time distribution, 1PFPP, 16,384 processors",
         "Each point is one rank's wall-clock I/O time for one checkpoint.");

  const auto& r = res.at(onePfpp());
  const prof::IoCounts& counts = res.outcome(onePfpp()).counts;

  sim::Sample sample;
  std::vector<double> xs, ys;
  xs.reserve(kNp);
  ys.reserve(kNp);
  for (int rank = 0; rank < kNp; ++rank) {
    const double v = r.perRankTime[static_cast<std::size_t>(rank)];
    sample.add(v);
    if (rank % 16 == 0) {  // thin the scatter for terminal width
      xs.push_back(rank);
      ys.push_back(v);
    }
  }

  std::printf("ranks: %d   makespan: %s   bandwidth: %s\n", kNp,
              secs(r.makespan).c_str(), gbs(r.bandwidth).c_str());
  std::printf("per-rank I/O time: min %.1f s  median %.1f s  p90 %.1f s  "
              "max %.1f s\n",
              sample.min(), sample.median(), sample.quantile(0.9),
              sample.max());
  std::printf("%s", analysis::scatter(xs, ys, 72, 20, "processor rank",
                                      "I/O time [s]").c_str());

  std::vector<Check> checks;
  checks.push_back({"slowest ranks exceed 300 s (paper: 'more than 300 s')",
                    sample.max() > 300.0, secs(sample.max())});
  checks.push_back({"some ranks finish within seconds",
                    sample.min() < 10.0, secs(sample.min())});
  checks.push_back({"high variance across ranks (serialised creates spread "
                    "completions over the full storm)",
                    sample.max() > 1.3 * sample.median() &&
                        sample.quantile(0.1) < 0.5 * sample.median(),
                    secs(sample.max()) + " vs median " +
                        secs(sample.median())});
  const std::uint64_t creates = counts.opCount(prof::Op::kCreate);
  checks.push_back({"metadata creates dominate: mean create time > 1 s",
                    creates == static_cast<std::uint64_t>(kNp) &&
                        counts.busySeconds(prof::Op::kCreate) / creates > 1.0,
                    "16384 creates issued"});
  return checks;
}

std::vector<Scenario> scenarios(const Flags&) { return {onePfpp()}; }
}  // namespace fig9

// Figure 10: per-processor I/O time distribution for coIO (np:nf = 64:1)
// on 65,536 processors, under the shared filesystem's normal user load.
// Most processors finish within ~10-20 s; straggler groups hit by noisy
// episodes take several times longer, and the synchronised collective makes
// everyone in those groups wait.
//
// Note: Fig. 5's bandwidths are medians over repeated quiet-ish runs; this
// figure reproduces a single *representative noisy run* (the paper notes
// the tests ran "under normal load, where there might be noise from other
// online users"), so the background-noise model is elevated here.
namespace fig10 {
constexpr int kNp = 65536;

/// One coIO 64:1 checkpoint on a noisy shared filesystem.
Scenario noisyRun() {
  Scenario s = coIo64(kNp);
  s.stack.seed = 42;
  s.stack.noise.slowProbability = 0.02;      // busier-than-usual afternoon
  s.stack.noise.severeProbability = 6e-5;    // a couple of severe stalls
  s.stack.noise.severeFactorMedian = 400.0;  // RAID-rebuild-class episodes
  return s;
}

std::vector<Check> render(const Flags&, const Results& res) {
  banner("Figure 10 - I/O time distribution, coIO 64:1, 65,536 processors",
         "One checkpoint on a noisy shared filesystem.");

  const auto& r = res.at(noisyRun());
  sim::Sample sample;
  std::vector<double> xs, ys;
  for (int rank = 0; rank < kNp; ++rank) {
    const double v = r.perRankTime[static_cast<std::size_t>(rank)];
    sample.add(v);
    if (rank % 64 == 0) {
      xs.push_back(rank);
      ys.push_back(v);
    }
  }

  std::printf("ranks: %d   makespan: %s   bandwidth: %s\n", kNp,
              secs(r.makespan).c_str(), gbs(r.bandwidth).c_str());
  std::printf("per-rank I/O time: min %.1f s  median %.1f s  p99 %.1f s  "
              "max %.1f s\n",
              sample.min(), sample.median(), sample.quantile(0.99),
              sample.max());
  std::printf("%s", analysis::scatter(xs, ys, 72, 20, "processor rank",
                                      "I/O time [s]").c_str());

  std::vector<Check> checks;
  checks.push_back({"most processors finish near the median (synchronised groups)",
                    sample.quantile(0.9) < 1.6 * sample.median(),
                    "p90 " + secs(sample.quantile(0.9)) + " vs median " +
                        secs(sample.median())});
  checks.push_back({"noise outliers exist (slowest groups several times "
                    "the median, like the paper's ~40 s stragglers)",
                    sample.max() > 2.0 * sample.median(),
                    "max " + secs(sample.max()) + " vs median " +
                        secs(sample.median())});
  checks.push_back({"scale far below 1PFPP's (max well under 300 s)",
                    sample.max() < 150.0, secs(sample.max())});
  return checks;
}

std::vector<Scenario> scenarios(const Flags&) { return {noisyRun()}; }
}  // namespace fig10

// Figure 11: per-processor I/O time distribution for rbIO (np:ng = 64:1,
// nf = ng) on 65,536 processors. Two "lines" appear: the upper one is the
// 1,024 writers (nearly flat — good synchronisation even with independent
// MPI_File_write_at), the lower one is the 64,512 workers, whose I/O cost
// is a single nonblocking send measured in microseconds.
namespace fig11 {
constexpr int kNp = 65536;

std::vector<Check> render(const Flags&, const Results& res) {
  banner("Figure 11 - I/O time distribution, rbIO nf=ng, 65,536 processors",
         "Upper line: writers; lower line: workers.");

  const auto& r = res.at(rbIo64(kNp));

  sim::Sample writers, workers;
  std::vector<double> xs, ys;
  for (int rank = 0; rank < kNp; ++rank) {
    const double v = r.perRankTime[static_cast<std::size_t>(rank)];
    if (rank % 64 == 0)
      writers.add(v);
    else
      workers.add(v);
    if (rank % 64 == 0 || rank % 97 == 0) {
      xs.push_back(rank);
      ys.push_back(v);
    }
  }

  std::printf("ranks: %d   makespan: %s   bandwidth: %s\n", kNp,
              secs(r.makespan).c_str(), gbs(r.bandwidth).c_str());
  std::printf("writers (%zu): min %.2f s  median %.2f s  max %.2f s\n",
              writers.size(), writers.min(), writers.median(), writers.max());
  std::printf("workers (%zu): min %.1f us  median %.1f us  max %.1f us\n",
              workers.size(), workers.min() * 1e6, workers.median() * 1e6,
              workers.max() * 1e6);
  std::printf("%s", analysis::scatter(xs, ys, 72, 20, "processor rank",
                                      "I/O time [s]").c_str());

  std::vector<Check> checks;
  checks.push_back({"workers block for microseconds (lower line at ~0)",
                    workers.max() < 1e-3,
                    std::to_string(workers.max() * 1e6) + " us max"});
  checks.push_back({"writers take seconds (upper line)",
                    writers.median() > 1.0, secs(writers.median())});
  checks.push_back({"writer line is almost flat (good synchronisation)",
                    writers.quantile(0.95) < 1.5 * writers.median(),
                    "p95 " + secs(writers.quantile(0.95)) + " vs median " +
                        secs(writers.median())});
  checks.push_back({"four orders of magnitude between the two lines",
                    writers.median() > 1e4 * workers.median(),
                    "writer/worker = " +
                        std::to_string(writers.median() / workers.median())});
  return checks;
}

std::vector<Scenario> scenarios(const Flags&) { return {rbIo64(kNp)}; }
}  // namespace fig11

// Figure 12: Darshan-style write-activity analysis of rbIO (nf = ng, top)
// vs coIO (np:nf = 64:1, bottom) in the 32K-processor case: how many
// processes are actively writing in each time slice. rbIO's independent
// writers stream continuously; coIO's field-synchronised rounds leave lock
// and synchronisation gaps.
namespace fig12 {
constexpr int kNp = 32768;

// The timelines need every write's interval, so the figure keeps both
// runs' op records; the write counts and op table come from their counts.
std::vector<Check> render(const Flags&, const Results& res) {
  banner("Figure 12 - write activity: rbIO (top) vs coIO 64:1 (bottom)",
         "32,768 processors; column shade = processes in a write call.");

  const Scenario rbRun = rbIo64(kNp);
  const Scenario coRun = coIo64(kNp);
  const auto& rb = res.at(rbRun);
  const auto& co = res.at(coRun);
  const prof::IoCounts& rbCounts = res.outcome(rbRun).counts;
  const prof::IoCounts& coCounts = res.outcome(coRun).counts;

  const double horizon = std::max(rb.makespan, co.makespan);
  const int bins = 64;
  const double binW = horizon / bins;
  auto rbLine =
      res.records(rbRun).activityTimeline(prof::Op::kWrite, binW, horizon);
  auto coLine =
      res.records(coRun).activityTimeline(prof::Op::kWrite, binW, horizon);

  std::printf("rbIO nf=ng : makespan %s, %llu write calls\n",
              secs(rb.makespan).c_str(),
              static_cast<unsigned long long>(
                  rbCounts.opCount(prof::Op::kWrite)));
  std::printf("coIO 64:1  : makespan %s, %llu write calls\n",
              secs(co.makespan).c_str(),
              static_cast<unsigned long long>(
                  coCounts.opCount(prof::Op::kWrite)));
  std::printf("%s", analysis::activityStrip({"rbIO nf=ng", "coIO 64:1 "},
                                            {rbLine, coLine}, binW)
                        .c_str());

  // Utilisation: fraction of the strategy's own makespan during which at
  // least one writer is active, and mean writer concurrency while active.
  auto stats = [&](const std::vector<int>& line, double makespan) {
    int active = 0;
    long total = 0;
    const int ownBins = static_cast<int>(makespan / binW);
    for (int b = 0; b < ownBins && b < static_cast<int>(line.size()); ++b) {
      if (line[static_cast<std::size_t>(b)] > 0) ++active;
      total += line[static_cast<std::size_t>(b)];
    }
    return std::pair<double, double>(
        static_cast<double>(active) / std::max(1, ownBins),
        static_cast<double>(total) / std::max(1, active));
  };
  // The Darshan-style op summary for the rbIO run (what the paper's log
  // analysis looked at).
  std::printf("\n%s", prof::renderOpTable(rbCounts).c_str());

  const auto [rbUtil, rbConc] = stats(rbLine, rb.makespan);
  const auto [coUtil, coConc] = stats(coLine, co.makespan);
  std::printf("rbIO: writing in %.0f%% of its slices, ~%.0f writers active\n",
              rbUtil * 100, rbConc);
  std::printf("coIO: writing in %.0f%% of its slices, ~%.0f writers active\n",
              coUtil * 100, coConc);

  std::vector<Check> checks;
  checks.push_back({"raw performance not significantly different "
                    "(paper: 'not significantly different')",
                    rb.bandwidth < 2.5 * co.bandwidth &&
                        co.bandwidth < 2.5 * rb.bandwidth,
                    gbs(rb.bandwidth) + " vs " + gbs(co.bandwidth)});
  checks.push_back({"rbIO writers stay busy through their window",
                    rbUtil > 0.9, std::to_string(rbUtil * 100) + "%"});
  checks.push_back({"coIO involves far more writing processes",
                    coConc > 1.5 * rbConc,
                    std::to_string(coConc) + " vs " + std::to_string(rbConc)});
  return checks;
}

std::vector<Scenario> scenarios(const Flags&) {
  return {rbIo64(kNp), coIo64(kNp)};
}
}  // namespace fig12

// Table I: perceived write performance with rbIO at 16K/32K/64K processors:
// the time an MPI_Isend takes to complete from the worker's point of view
// (in 850 MHz CPU cycles) and the corresponding "perceived bandwidth" —
// total worker data over the slowest handoff.
namespace table1 {
struct PaperRow {
  int np;
  double cycles;
  double tbps;
};
const std::vector<PaperRow> kPaper = {
    {16384, 10152, 251}, {32768, 11539, 442}, {65536, 9346, 1091}};

std::vector<Check> render(const Flags&, const Results& res) {
  banner("Table I - perceived write performance with rbIO",
         "np | median Isend (CPU cycles) | perceived bandwidth");

  std::printf("\n  %8s | %22s | %24s | %s\n", "np", "Isend cycles (median)",
              "perceived BW (measured)", "paper");
  std::vector<double> measured;
  double cyclesMin = 1e18, cyclesMax = 0;
  for (const auto& row : kPaper) {
    const auto& r = res.at(rbIo64(row.np));
    // Median worker handoff, in cycles at the BG/P core clock.
    sim::Sample isends;
    // maxIsendSeconds only exposes the max; recover the median from the
    // per-rank times (workers' time == isend time).
    for (int rank = 0; rank < row.np; ++rank)
      if (rank % 64 != 0)
        isends.add(r.perRankTime[static_cast<std::size_t>(rank)]);
    const double cycles = isends.median() * 850e6;
    cyclesMin = std::min(cyclesMin, cycles);
    cyclesMax = std::max(cyclesMax, cycles);
    measured.push_back(r.perceivedBandwidth);
    std::printf("  %8d | %15.0f cycles | %17.0f TB/s | %.0f cyc, %.0f TB/s\n",
                row.np, cycles, r.perceivedBandwidth / 1e12, row.cycles,
                row.tbps);
  }

  std::vector<Check> checks;
  checks.push_back(
      {"perceived bandwidth in the hundreds-of-TB/s range at 16K",
       measured[0] > 100e12 && measured[0] < 600e12,
       std::to_string(measured[0] / 1e12) + " TB/s (paper: 251)"});
  checks.push_back(
      {"perceived bandwidth reaches ~PB/s at 64K",
       measured[2] > 400e12 && measured[2] < 3000e12,
       std::to_string(measured[2] / 1e12) + " TB/s (paper: 1091)"});
  checks.push_back(
      {"perceived bandwidth grows with scale (weak scaling, flat Isend)",
       measured[0] < measured[1] && measured[1] < measured[2], "16K<32K<64K"});
  checks.push_back(
      {"Isend costs ~10^4 CPU cycles (paper: 9346-11539)",
       cyclesMin > 2e3 && cyclesMax < 5e4,
       std::to_string(cyclesMin) + " .. " + std::to_string(cyclesMax)});
  const auto& r16 = res.at(rbIo64(16384));
  checks.push_back(
      {"perceived dwarfs raw disk bandwidth by >10000x",
       r16.perceivedBandwidth > 1e4 * r16.bandwidth,
       std::to_string(r16.perceivedBandwidth / r16.bandwidth) + "x"});
  return checks;
}

std::vector<Scenario> scenarios(const Flags&) {
  std::vector<Scenario> out;
  for (const auto& row : kPaper) out.push_back(rbIo64(row.np));
  return out;
}
}  // namespace table1

// Equation (1): end-to-end production improvement of rbIO over 1PFPP at
// checkpoint frequency nc. With the paper's round numbers (Ratio_1pfpp ~
// 1000, Ratio_rbIO ~ 20, nc = 20) the improvement is ~25x; we also
// evaluate it with our measured ratios.
namespace eq1 {
std::vector<Check> render(const Flags&, const Results& res) {
  banner("Equation (1) - production time improvement, rbIO vs 1PFPP",
         "improvement = (Ratio_1pfpp + nc) / (Ratio_rbIO + nc)");

  // The paper's arithmetic.
  const double paperValue = analysis::productionImprovement(1000, 20, 20);
  std::printf("\npaper inputs (Ratio=1000 vs 20, nc=20): %.1fx  "
              "(paper: 'approximately 25x')\n",
              paperValue);

  // Our measured inputs at each scale.
  nekcem::PerfModel perf;
  const double tComp = perf.weakScalingStepSeconds();
  std::vector<Check> checks;
  for (int np : kScales) {
    const auto& pfpp =
        res.at(weakScaling(np, iolib::StrategyConfig::onePfpp()));
    const auto& rbio = res.at(rbIo64(np));
    const double ratioPfpp = pfpp.makespan / tComp;
    const double ratioRbio = rbio.writerMakespan / tComp;
    std::printf("np=%6d: Ratio_1pfpp=%7.0f  Ratio_rbIO=%5.1f  ", np,
                ratioPfpp, ratioRbio);
    for (double nc : {10.0, 20.0, 100.0}) {
      std::printf("nc=%-3.0f -> %5.1fx  ", nc,
                  analysis::productionImprovement(ratioPfpp, ratioRbio, nc));
    }
    std::printf("\n");
    const double imp =
        analysis::productionImprovement(ratioPfpp, ratioRbio, 20);
    // The paper's "approximately 25x" follows from Ratio_1pfpp ~ 1000; our
    // 1PFPP collapses harder at 64K, which can only grow the improvement.
    checks.push_back(
        {"tens-of-x improvement at nc=20, np=" + std::to_string(np) +
             " (paper: ~25x from its round-number ratios)",
         imp > 10 && imp < 300, std::to_string(imp) + "x"});
  }
  checks.push_back({"paper-arithmetic reproduction equals ~25x",
                    paperValue > 25.0 && paperValue < 26.0,
                    std::to_string(paperValue) + "x"});
  return checks;
}

std::vector<Scenario> scenarios(const Flags&) {
  std::vector<Scenario> out;
  for (int np : kScales) {
    out.push_back(weakScaling(np, iolib::StrategyConfig::onePfpp()));
    out.push_back(rbIo64(np));
  }
  return out;
}
}  // namespace eq1

// Equations (2)-(7): the blocked-processor-time speedup of rbIO over coIO.
// We evaluate the paper's analytical chain with our measured bandwidths and
// sweep lambda (the fraction of writer time that blocks workers).
namespace eq27 {
constexpr int kNp = 65536;

std::vector<Check> render(const Flags&, const Results& res) {
  banner("Equations (2)-(7) - rbIO over coIO blocked-time speedup",
         "Speedup ~ (np/ng) * BW_rbIO/BW_coIO as lambda -> 0.");

  const auto& co = res.at(coIo64(kNp));
  const auto& rb = res.at(rbIo64(kNp));

  analysis::SpeedupParams p;
  p.np = kNp;
  p.ng = kNp / 64.0;
  p.fileBytes = static_cast<double>(rb.logicalBytes);
  p.bwCoIo = co.bandwidth;
  p.bwRbIo = rb.bandwidth;
  p.bwPerceived = rb.perceivedBandwidth;
  std::printf("\nmeasured inputs at np=64K: BW_coIO=%s BW_rbIO=%s BW_p=%.0f TB/s\n",
              gbs(p.bwCoIo).c_str(), gbs(p.bwRbIo).c_str(),
              p.bwPerceived / 1e12);

  std::printf("\n  %-8s | %-12s | %-12s | %-12s\n", "lambda", "exact (2)",
              "approx (6)", "limit (7)");
  for (double lambda : {0.0, 0.001, 0.01, 0.05, 0.1, 0.5, 1.0}) {
    p.lambda = lambda;
    std::printf("  %-8.3f | %12.1f | %12.1f | %12.1f\n", lambda,
                analysis::speedupExact(p), analysis::speedupApprox(p),
                analysis::speedupLimit(p));
  }

  p.lambda = 0.0;
  const double exact0 = analysis::speedupExact(p);
  const double limit = analysis::speedupLimit(p);

  std::vector<Check> checks;
  checks.push_back(
      {"lambda->0 speedup approaches the (np/ng)*(BW ratio) limit",
       std::abs(exact0 - limit) / limit < 0.05,
       std::to_string(exact0) + " vs " + std::to_string(limit)});
  checks.push_back(
      {"speedup is tens-to-hundreds (the paper argues ~60x; >=30x even in "
       "its worst case)",
       exact0 > 30, std::to_string(exact0) + "x"});
  // Worst case of the paper: BW_rbIO = BW_coIO / 2 -> half of np/ng.
  analysis::SpeedupParams worst = p;
  worst.bwRbIo = worst.bwCoIo / 2;
  const double worstCase = analysis::speedupApprox(worst);
  checks.push_back({"worst case (half bandwidth) still ~np/(2*ng) = 32x",
                    worstCase > 28 && worstCase < 36,
                    std::to_string(worstCase) + "x"});
  p.lambda = 1.0;
  checks.push_back(
      {"lambda=1 (workers fully blocked) collapses the speedup",
       analysis::speedupExact(p) < 3.0,
       std::to_string(analysis::speedupExact(p)) + "x"});
  return checks;
}

std::vector<Scenario> scenarios(const Flags&) {
  return {coIo64(kNp), rbIo64(kNp)};
}
}  // namespace eq27

// Equation (7), closed loop: the paper's blocked-time speedup claim checked
// against *measured* blocked processor time, not just the analytical chain.
//
// eq27_speedup_model evaluates Eqs. (2)-(7) with measured bandwidths; this
// harness goes one step further and measures the left-hand side too. The
// blocked-time attribution sink (obs/attr.hpp) partitions every rank's
// simulated time into exclusive phases, so "processor-seconds blocked by
// I/O" is simply the non-compute total — summed straight from the trace
// stream, with no knowledge of Eqs. (3)/(4). If the simulator and the
// paper's model describe the same physics, the two must agree:
//
//   measured speedup  =  blocked_coIO / blocked_rbIO   (from attribution)
//   model   speedup   =  Eq. (2) exact, and its Eq. (7) limit
//                        (np/ng) * BW_rbIO/BW_coIO     (from bandwidths)
namespace eq7 {
void printPhaseTable(const char* label,
                     const obs::AttributionEngine::Report& r) {
  std::printf("\n  %s: processor-seconds by phase (horizon %.3f s x %zu "
              "ranks)\n",
              label, r.horizon, r.ranks.size());
  for (int p = 0; p < obs::kNumPhases; ++p) {
    if (r.totals[static_cast<std::size_t>(p)] <= 0.0) continue;
    std::printf("    %-13s %14.3f\n",
                obs::phaseName(static_cast<obs::Phase>(p)),
                r.totals[static_cast<std::size_t>(p)]);
  }
  std::printf("    %-13s %14.3f\n", "blocked", r.blockedSeconds());
}

// The figure keeps both runs' attribution reports: the finalized per-rank
// phase partition next to the classic result.
std::vector<Check> render(const Flags& flags, const Results& res) {
  banner("Equation (7) - measured blocked time vs the analytical model",
         "Attribution-measured blocked processor-seconds, coIO vs rbIO.");

  const int np = flags.np;
  const int ng = np / 64;
  const Scenario coRun = coIo64(np);
  const Scenario rbRun = rbIo64(np);
  const auto& co = res.at(coRun);
  const auto& rb = res.at(rbRun);
  const auto& coAttr = res.attribution(coRun);
  const auto& rbAttr = res.attribution(rbRun);

  printPhaseTable("coIO, np:nf=64:1", coAttr);
  printPhaseTable("rbIO, 64:1, nf=ng", rbAttr);

  // Measured side: blocked processor-seconds straight from the partition.
  const double blockedCo = coAttr.blockedSeconds();
  const double blockedRb = rbAttr.blockedSeconds();
  const double measuredSpeedup = blockedCo / blockedRb;

  // Worker-only view of rbIO: everyone except the 64:1 writers.
  double workerBlocked = 0.0;
  int workers = 0;
  for (const auto& slice : rbAttr.ranks) {
    if (slice.rank % 64 == 0) continue;
    workerBlocked += slice.blocked();
    ++workers;
  }
  const double workerFrac =
      workers > 0 ? workerBlocked / (workers * rbAttr.horizon) : 0.0;

  // Model side: Eqs. (3)/(4)/(2)/(7) fed with the measured bandwidths.
  analysis::SpeedupParams p;
  p.np = np;
  p.ng = ng;
  p.fileBytes = static_cast<double>(rb.logicalBytes);
  p.bwCoIo = co.bandwidth;
  p.bwRbIo = rb.bandwidth;
  p.bwPerceived = rb.perceivedBandwidth;
  p.lambda = 0.0;
  const double modelCo = analysis::blockedTimeCoIo(p);
  const double modelRb = analysis::blockedTimeRbIo(p);
  const double modelExact = analysis::speedupExact(p);
  const double modelLimit = analysis::speedupLimit(p);

  std::printf("\n  inputs: np=%d ng=%d S=%.2f GB BW_coIO=%s BW_rbIO=%s "
              "BW_p=%.0f TB/s\n",
              np, ng, p.fileBytes / 1e9, gbs(p.bwCoIo).c_str(),
              gbs(p.bwRbIo).c_str(), p.bwPerceived / 1e12);
  std::printf("\n  %-34s | %14s | %14s\n", "blocked processor-seconds",
              "measured", "model");
  std::printf("  %-34s | %14.1f | %14.1f  (Eq. 3)\n", "coIO", blockedCo,
              modelCo);
  std::printf("  %-34s | %14.1f | %14.1f  (Eq. 4, lambda=0)\n", "rbIO",
              blockedRb, modelRb);
  std::printf("  %-34s | %13.1fx | %13.1fx  (Eq. 2 exact)\n",
              "speedup rbIO over coIO", measuredSpeedup, modelExact);
  std::printf("  %-34s | %14s | %13.1fx  (Eq. 7 limit)\n", "", "",
              modelLimit);
  std::printf("\n  rbIO worker blocked fraction: %.4f%% of the horizon\n",
              workerFrac * 100.0);

  std::vector<Check> checks;
  const double defect =
      std::max(coAttr.partitionDefect(), rbAttr.partitionDefect());
  checks.push_back({"attribution phases partition [0, horizon] on every rank",
                    defect < 1e-9 * std::max(1.0, coAttr.horizon),
                    "max defect " + std::to_string(defect) + " s"});
  // Eq. (3) assumes every rank stays blocked for the full S/BW_coIO; with
  // nf=ng independent files the groups finish at different times, so the
  // model upper-bounds the measurement and skew accounts for the gap.
  checks.push_back(
      {"Eq. (3) upper-bounds measured coIO blocked time, within 40% slack",
       blockedCo < modelCo * 1.001 && blockedCo > 0.60 * modelCo,
       std::to_string(blockedCo) + " vs " + std::to_string(modelCo)});
  checks.push_back(
      {"measured rbIO blocked time matches Eq. (4), lambda=0, within 30%",
       std::abs(blockedRb - modelRb) / modelRb < 0.30,
       std::to_string(blockedRb) + " vs " + std::to_string(modelRb)});
  checks.push_back(
      {"measured speedup matches the Eq. (7) limit within 30%",
       std::abs(measuredSpeedup - modelLimit) / modelLimit < 0.30,
       std::to_string(measuredSpeedup) + "x vs " + std::to_string(modelLimit) +
           "x"});
  checks.push_back({"measured speedup is tens of x (paper argues ~60x at 64K)",
                    measuredSpeedup > 20.0,
                    std::to_string(measuredSpeedup) + "x"});
  checks.push_back({"rbIO workers spend <1% of the horizon blocked",
                    workerFrac < 0.01,
                    std::to_string(workerFrac * 100.0) + "%"});
  checks.push_back(
      {"coIO blocks the mean rank for most of its horizon (>60%)",
       blockedCo > 0.60 * np * coAttr.horizon,
       std::to_string(blockedCo / (np * coAttr.horizon) * 100.0) + "%"});
  return checks;
}

std::vector<Scenario> scenarios(const Flags& flags) {
  return {coIo64(flags.np), rbIo64(flags.np)};
}
}  // namespace eq7

// Section III-B: reading the global mesh inputs (*.rea and *.map) at the
// presetup stage. "Reading the global data for a mesh takes from 7.5
// seconds to 28 seconds, with E=136K and 546K on P=32,768 and 131,072
// processors of BG/P." Rank 0 reads the global files through the
// filesystem, parses them, and broadcasts over the collective network.
namespace mesh {
struct Case {
  int ranks;
  std::uint64_t elements;
  double paperSeconds;
};
// 131,072 ranks exceeds our largest prebuilt torus table only in name; the
// Intrepid factory supports it directly.
const std::vector<Case> kCases = {{32768, 136000, 7.5},
                                  {131072, 546000, 28.0}};

/// The read on a noise-free stack (the program is bench::MeshRead's).
Scenario readMesh(const Case& c) {
  Scenario s{c.ranks, {}, {}, MeshRead{c.elements}};
  s.stack.noise = stor::NoiseModel::none();
  return s;
}

std::vector<Check> render(const Flags&, const Results& res) {
  banner("Section III-B - global mesh read time at presetup",
         "Rank 0 reads, parses and broadcasts the global mesh files.");

  std::vector<double> measured;
  for (const auto& c : kCases) {
    const double seconds = res.get<double>(readMesh(c));
    measured.push_back(seconds);
    std::printf("E=%6lluK on P=%6d: measured %6.1f s   (paper: %.1f s)\n",
                static_cast<unsigned long long>(c.elements / 1000), c.ranks,
                seconds, c.paperSeconds);
  }

  std::vector<Check> checks;
  checks.push_back({"small case lands in single-digit seconds (paper: 7.5 s)",
                    measured[0] > 2 && measured[0] < 15,
                    secs(measured[0])});
  checks.push_back({"large case lands in tens of seconds (paper: 28 s)",
                    measured[1] > 12 && measured[1] < 60,
                    secs(measured[1])});
  checks.push_back({"cost grows with mesh size",
                    measured[1] > 2.0 * measured[0],
                    secs(measured[1]) + " vs " + secs(measured[0])});
  checks.push_back({"read phase is negligible next to 1PFPP checkpointing "
                    "(why the paper optimises writes)",
                    measured[0] < 20.0, secs(measured[0])});
  return checks;
}

std::vector<Scenario> scenarios(const Flags&) {
  std::vector<Scenario> out;
  for (const auto& c : kCases) out.push_back(readMesh(c));
  return out;
}
}  // namespace mesh

// Ablation / future work: GPFS vs the lock-free PVFS personality.
//
// The paper attempted a GPFS-vs-PVFS comparison but dropped it because the
// Intrepid deployments differed too much ("cache was turned off on PVFS").
// The simulator can hold everything else fixed: same machine, same noise,
// same strategies — only the filesystem personality changes. The
// expectation from the locking model: PVFS's lock-free writes help most
// exactly where GPFS pays tokens (the single shared file), and metadata-
// heavy 1PFPP remains bad either way.
namespace pvfs {
constexpr int kNp = 16384;

/// The checkpoint on GPFS (the default stack), or on PVFS with the
/// per-stream data rate held equal so only locking/metadata differ.
Scenario runWith(bool pvfs, const iolib::StrategyConfig& strategy) {
  Scenario s = weakScaling(kNp, strategy);
  if (pvfs) {
    const fs::FsConfig gpfs = s.stack.fsConfig;
    s.stack.fsConfig = fs::pvfsConfig();
    s.stack.fsConfig.writeStreamBandwidth = gpfs.writeStreamBandwidth;
    s.stack.fsConfig.readStreamBandwidth = gpfs.readStreamBandwidth;
  }
  return s;
}

std::vector<Check> render(const Flags&, const Results& res) {
  banner("Ablation - GPFS vs lock-free PVFS personality",
         "The comparison the paper had to skip (Section V-C1).");

  struct Row {
    const char* name;
    iolib::StrategyConfig cfg;
    double gpfsBw = 0;
    double pvfsBw = 0;
  };
  std::vector<Row> rows = {
      {"1PFPP", iolib::StrategyConfig::onePfpp()},
      {"coIO nf=1", iolib::StrategyConfig::coIo(1)},
      {"coIO 64:1", iolib::StrategyConfig::coIo(kNp / 64)},
      {"rbIO nf=1", iolib::StrategyConfig::rbIo(64, false)},
      {"rbIO nf=ng", iolib::StrategyConfig::rbIo(64, true)},
  };
  std::printf("\n  %-12s | %10s | %10s | %s\n", "strategy", "GPFS", "PVFS",
              "PVFS/GPFS");
  for (auto& row : rows) {
    row.gpfsBw = res.at(runWith(false, row.cfg)).bandwidth;
    row.pvfsBw = res.at(runWith(true, row.cfg)).bandwidth;
    std::printf("  %-12s | %7.2f GB/s | %7.2f GB/s | %5.2fx\n", row.name,
                row.gpfsBw / 1e9, row.pvfsBw / 1e9, row.pvfsBw / row.gpfsBw);
  }

  std::vector<Check> checks;
  const double sharedGain = rows[1].pvfsBw / rows[1].gpfsBw;   // coIO nf=1
  const double splitGain = rows[2].pvfsBw / rows[2].gpfsBw;    // coIO 64:1
  checks.push_back({"lock-free helps the single shared file the most",
                    sharedGain > splitGain,
                    std::to_string(sharedGain) + "x vs " +
                        std::to_string(splitGain) + "x"});
  checks.push_back({"shared-file writes gain substantially without tokens",
                    sharedGain > 1.3, std::to_string(sharedGain) + "x"});
  checks.push_back({"1PFPP stays catastrophic on PVFS too (metadata-bound, "
                    "single MDS)",
                    rows[0].pvfsBw < 0.2 * rows[4].pvfsBw,
                    gbs(rows[0].pvfsBw) + " vs rbIO " +
                        gbs(rows[4].pvfsBw)});
  checks.push_back({"rbIO nf=ng barely changes (it avoided locks by design)",
                    rows[4].pvfsBw < 1.3 * rows[4].gpfsBw &&
                        rows[4].pvfsBw > 0.8 * rows[4].gpfsBw,
                    std::to_string(rows[4].pvfsBw / rows[4].gpfsBw) + "x"});
  return checks;
}

// The rows are the five paper approaches.
std::vector<Scenario> scenarios(const Flags&) {
  std::vector<Scenario> out;
  for (const Approach& a : paperApproaches(kNp))
    for (bool pvfs : {false, true}) out.push_back(runWith(pvfs, a.cfg));
  return out;
}
}  // namespace pvfs

// Ablation: the ROMIO/BG/P design choices the paper leans on —
//  (a) file-domain alignment to filesystem block boundaries (the lock-
//      contention optimisation of Liao & Choudhary cited in Section V-B),
//  (b) the "bgp_nodes_pset" aggregator-count hint,
//  (c) the deferred-open optimisation.
// Each is toggled in isolation for coIO on 16K ranks.
namespace romio {
constexpr int kNp = 16384;
const std::vector<int> kPerPset = {1, 2, 4, 8, 16, 32};

/// coIO with `nf` files under `hints`. Noise-free: an ablation isolates
/// one knob, so the background-load lottery is switched off.
Scenario runHints(const io::Hints& hints, int nf) {
  iolib::StrategyConfig cfg = iolib::StrategyConfig::coIo(nf);
  cfg.hints = hints;
  Scenario s = weakScaling(kNp, cfg);
  s.stack.noise = stor::NoiseModel::none();
  return s;
}

std::vector<Check> render(const Flags&, const Results& res) {
  banner("Ablation - ROMIO/BG-P knobs under coIO",
         "File-domain alignment, aggregators per pset, deferred open.");

  std::printf("\n(a) file-domain alignment, coIO nf=1:\n");
  const Scenario aligned = runHints({}, 1);
  const Scenario unaligned = runHints({.alignFileDomains = false}, 1);
  const auto& withAlign = res.at(aligned);
  const auto& noAlign = res.at(unaligned);
  const std::uint64_t alignedRevocations = res.outcome(aligned).revocations;
  const std::uint64_t unalignedRevocations =
      res.outcome(unaligned).revocations;
  std::printf("    aligned  : %8s  %8llu revocations\n",
              gbs(withAlign.bandwidth).c_str(),
              static_cast<unsigned long long>(alignedRevocations));
  std::printf("    unaligned: %8s  %8llu revocations\n",
              gbs(noAlign.bandwidth).c_str(),
              static_cast<unsigned long long>(unalignedRevocations));

  std::printf("\n(b) bgp_nodes_pset (aggregators per pset), coIO nf=1:\n");
  std::vector<std::pair<int, double>> aggSweep;
  for (int perPset : kPerPset) {
    const auto& out = res.at(runHints({.bgpNodesPset = perPset}, 1));
    aggSweep.emplace_back(perPset, out.bandwidth);
    std::printf("    bgp_nodes_pset=%2d (%4d aggregators): %s\n", perPset,
                perPset * 64, gbs(out.bandwidth).c_str());
  }

  std::printf("\n(c) deferred open, coIO 64:1:\n");
  const auto& defOut = res.at(runHints({}, kNp / 64));
  const auto& eagerOut = res.at(runHints({.deferredOpen = false}, kNp / 64));
  std::printf("    deferred (aggregators only): %s\n",
              gbs(defOut.bandwidth).c_str());
  std::printf("    eager (every rank opens)   : %s\n",
              gbs(eagerOut.bandwidth).c_str());

  std::vector<Check> checks;
  // Per-round domain migration legitimately renegotiates tokens either
  // way; alignment removes the *false sharing* of boundary blocks on top.
  checks.push_back({"alignment reduces lock revocations",
                    alignedRevocations < unalignedRevocations,
                    std::to_string(alignedRevocations) + " vs " +
                        std::to_string(unalignedRevocations)});
  checks.push_back({"alignment does not hurt bandwidth",
                    withAlign.bandwidth > 0.9 * noAlign.bandwidth,
                    gbs(withAlign.bandwidth) + " vs " +
                        gbs(noAlign.bandwidth)});
  // More aggregators help until system limits take over.
  checks.push_back({"1 aggregator/pset underperforms the default 8",
                    aggSweep[0].second < aggSweep[3].second,
                    gbs(aggSweep[0].second) + " vs " +
                        gbs(aggSweep[3].second)});
  checks.push_back({"32/pset is not better than 8/pset (system-bound)",
                    aggSweep[5].second < 1.25 * aggSweep[3].second,
                    gbs(aggSweep[5].second) + " vs " +
                        gbs(aggSweep[3].second)});
  checks.push_back({"deferred open >= eager open",
                    defOut.bandwidth > 0.95 * eagerOut.bandwidth,
                    gbs(defOut.bandwidth) + " vs " +
                        gbs(eagerOut.bandwidth)});
  return checks;
}

std::vector<Scenario> scenarios(const Flags&) {
  std::vector<Scenario> out = {runHints({}, 1),
                               runHints({.alignFileDomains = false}, 1)};
  for (int perPset : kPerPset)
    out.push_back(runHints({.bgpNodesPset = perPset}, 1));
  out.push_back(runHints({}, kNp / 64));
  out.push_back(runHints({.deferredOpen = false}, kNp / 64));
  return out;
}
}  // namespace romio

// Ablation: the paper's remark on 1PFPP — "Better performance may be
// achieved by producing a single file per directory. However, most
// parallel file systems are not designed to deal with hundreds of
// thousands of small files, and manageability becomes a significant
// issue." One rank per directory dodges the directory-token storm, but
// the tuned approaches still win and the file count is unchanged.
namespace dirs {
constexpr int kNp = 16384;

/// 1PFPP with every file in one shared directory, or one directory per rank.
Scenario onePfpp(bool privateDirs) {
  iolib::StrategyConfig cfg = iolib::StrategyConfig::onePfpp();
  cfg.onePfppPrivateDirs = privateDirs;
  return weakScaling(kNp, cfg);
}

std::vector<Check> render(const Flags&, const Results& res) {
  banner("Ablation - 1PFPP with one file per directory",
         "Removing the shared-directory metadata storm from 1PFPP.");

  const auto& sharedRun = res.at(onePfpp(false));
  const auto& privateRun = res.at(onePfpp(true));
  const auto& rbio = res.at(rbIo64(kNp));

  std::printf("\n  1PFPP, one shared directory : %8s (%s)\n",
              secs(sharedRun.makespan).c_str(),
              gbs(sharedRun.bandwidth).c_str());
  std::printf("  1PFPP, one dir per rank     : %8s (%s)\n",
              secs(privateRun.makespan).c_str(),
              gbs(privateRun.bandwidth).c_str());
  std::printf("  rbIO 64:1 nf=ng (reference) : %8s (%s)\n",
              secs(rbio.makespan).c_str(), gbs(rbio.bandwidth).c_str());
  std::printf("\n  ...but the private-dir variant still leaves %d files "
              "(plus %d directories)\n  per checkpoint to manage, versus "
              "%d for rbIO.\n",
              kNp, kNp, kNp / 64);

  std::vector<Check> checks;
  checks.push_back({"per-rank directories remove the metadata storm "
                    "(~10x faster than the shared directory; the residual cost\n"
                    "is 16K concurrent streams thrashing the arrays)",
                    privateRun.makespan * 8 < sharedRun.makespan,
                    secs(privateRun.makespan) + " vs " +
                        secs(sharedRun.makespan)});
  checks.push_back({"16K tiny files still lose to rbIO's aggregated streams",
                    privateRun.bandwidth < rbio.bandwidth,
                    gbs(privateRun.bandwidth) + " vs " +
                        gbs(rbio.bandwidth)});
  checks.push_back({"private-dir 1PFPP becomes at least usable "
                    "(under 60 s per checkpoint)",
                    privateRun.makespan < 60.0,
                    secs(privateRun.makespan)});
  return checks;
}

std::vector<Scenario> scenarios(const Flags&) {
  return {onePfpp(false), onePfpp(true), rbIo64(kNp)};
}
}  // namespace dirs

// Extension: the end-to-end production experiment behind Eq. (1) and the
// abstract's "25x production performance improvement", measured directly
// rather than composed — a full campaign of compute steps with checkpoints
// every nc steps, on 16,384 simulated ranks. rbIO's dedicated writers
// drain checkpoints concurrently with computation, so its I/O cost only
// surfaces when the cadence outpaces the writers.
namespace campaign {
constexpr int kNp = 16384;

/// 60 compute steps, checkpointing every 20 with `strategy`.
Scenario run(const iolib::StrategyConfig& strategy) {
  iolib::CampaignConfig cfg;
  cfg.steps = 60;
  cfg.checkpointEvery = 20;
  cfg.computeStepSeconds = nekcem::PerfModel().weakScalingStepSeconds();
  cfg.strategy = strategy;
  return {kNp, {}, iolib::CheckpointSpec::nekcemWeakScaling(kNp), cfg};
}

std::vector<Approach> strategies() {
  return {
      {"1PFPP", iolib::StrategyConfig::onePfpp()},
      {"coIO 64:1", iolib::StrategyConfig::coIo(kNp / 64)},
      {"rbIO 64:1 nf=ng", iolib::StrategyConfig::rbIo(64, true)},
  };
}

std::vector<Check> render(const Flags&, const Results& res) {
  banner("Production campaign - end-to-end Eq. (1), measured directly",
         "60 compute steps, checkpoint every 20, 16,384 ranks.");

  const auto base = std::get<iolib::CampaignConfig>(run({}).run);
  std::printf("\ncompute-only time: %.1f s (%d steps x %.3f s)\n",
              base.steps * base.computeStepSeconds, base.steps,
              base.computeStepSeconds);
  std::printf("\n  %-16s | %10s | %12s | %10s\n", "strategy", "total",
              "I/O overhead", "% overhead");
  std::vector<iolib::CampaignResult> rows;
  for (const Approach& a : strategies()) {
    const auto& r =
        rows.emplace_back(res.get<iolib::CampaignResult>(run(a.cfg)));
    std::printf("  %-16s | %8.1f s | %10.1f s | %9.1f%%\n", a.name.c_str(),
                r.totalSeconds, r.ioOverheadSeconds,
                100.0 * r.ioOverheadSeconds / r.totalSeconds);
  }
  const double vsPfpp = rows[2].improvementOver(rows[0]);
  const double vsCoIo = rows[2].improvementOver(rows[1]);
  std::printf("\nrbIO end-to-end improvement: %.1fx over 1PFPP, %.2fx over "
              "coIO 64:1\n",
              vsPfpp, vsCoIo);

  std::vector<Check> checks;
  // At 16K with nc=20 the writer drain (~5 s) slightly exceeds the cadence
  // (~4.4 s), so writers trail the computation — the paper's own caveat
  // that writers must "flush their I/O requests roughly in the time
  // between writes". The overhead must still be far below the blocking
  // strategies'.
  checks.push_back({"rbIO campaign overhead modest (<40%) and below coIO's",
                    rows[2].ioOverheadSeconds < 0.4 * rows[2].totalSeconds &&
                        rows[2].ioOverheadSeconds < rows[1].ioOverheadSeconds,
                    std::to_string(100.0 * rows[2].ioOverheadSeconds /
                                   rows[2].totalSeconds) +
                        "%"});
  checks.push_back({"1PFPP campaign is dominated by I/O (>80% overhead)",
                    rows[0].ioOverheadSeconds > 0.8 * rows[0].totalSeconds,
                    std::to_string(rows[0].ioOverheadSeconds) + " s"});
  checks.push_back({"tens-of-x end-to-end improvement over 1PFPP "
                    "(paper: ~25x)",
                    vsPfpp > 10 && vsPfpp < 300,
                    std::to_string(vsPfpp) + "x"});
  checks.push_back({"rbIO also beats blocking coIO end to end",
                    vsCoIo > 1.0, std::to_string(vsCoIo) + "x"});
  return checks;
}

std::vector<Scenario> scenarios(const Flags&) {
  std::vector<Scenario> out;
  for (const Approach& a : strategies()) out.push_back(run(a.cfg));
  return out;
}
}  // namespace campaign

// Extension / future work: SCR-style multilevel checkpointing on the
// "future leadership system" the paper's related-work section anticipates
// (a RAM-disk-capable compute OS, which BG/P's CNK was not). Level-1
// checkpoints go to node-local RAM disk with a torus partner mirror; every
// 4th checkpoint drains to GPFS with rbIO. SCR's authors report 14x-234x
// checkpoint speedups over a parallel filesystem for pF3D at up to 8K
// cores — this harness shows where our simulated Intrepid lands.
namespace multilevel {
/// The weak-scaling checkpoint at `np` ranks under the default scheme:
/// partner copy, every 4th checkpoint drained with rbIO 64:1 nf=ng.
Scenario run(int np) {
  return {np, {}, iolib::CheckpointSpec::nekcemWeakScaling(np),
          iolib::MultilevelConfig{}};
}

std::vector<Check> render(const Flags&, const Results& res) {
  banner("Extension - SCR-style multilevel checkpointing",
         "Node-local RAM disk + partner mirror + periodic rbIO PFS drain.");

  std::vector<Check> checks;
  std::printf("\n  %8s | %12s | %12s | %14s | %10s\n", "np", "level 1",
              "PFS (rbIO)", "amortised (1:4)", "L1 speedup");
  for (int np : kScales) {
    const auto& r = res.get<iolib::MultilevelResult>(run(np));
    std::printf("  %8d | %10.4f s | %10.2f s | %12.2f s | %9.0fx\n", np,
                r.localMakespan, r.pfsMakespan, r.amortizedSeconds,
                r.level1Speedup);
    if (np == 65536) {
      checks.push_back({"level-1 speedup in SCR's reported territory "
                        "(14x-234x ballpark, allowing our larger scale)",
                        r.level1Speedup > 14,
                        std::to_string(r.level1Speedup) + "x"});
      checks.push_back({"amortised multilevel beats PFS-only by >2x",
                        r.amortizedSpeedup > 2.0,
                        std::to_string(r.amortizedSpeedup) + "x"});
      checks.push_back({"local checkpoints complete in well under a second",
                        r.localMakespan < 0.5,
                        std::to_string(r.localMakespan) + " s"});
    }
  }
  std::printf("\nNote: level 1 alone survives process failures and (with "
              "the partner mirror)\nsingle-node loss; only multi-node "
              "failures need the PFS generation.\n");
  return checks;
}

std::vector<Scenario> scenarios(const Flags&) {
  std::vector<Scenario> out;
  for (int np : kScales) out.push_back(run(np));
  return out;
}
}  // namespace multilevel

// Extension: forecast at full-Intrepid scale. The paper measured 16K-64K
// cores and notes NekCEM itself scales to 131K; its conclusion predicts
// rbIO "can use application-level, two-phase I/O to achieve improved
// performance and better scalability". This harness runs the calibrated
// simulator at 131,072 ranks (1.1 billion grid points, ~315 GB per
// checkpoint) to see whether the paper's trends extrapolate: rbIO nf=ng
// should hold near the system ceiling while coIO 64:1 degrades further
// (8192 concurrent streams) and the 1PFPP storm deepens.
namespace forecast {
constexpr int kNp = 131072;

std::vector<Check> render(const Flags&, const Results& res) {
  banner("Extension - forecast at 131,072 ranks (full Intrepid)",
         "Extrapolating Fig. 5 one doubling beyond the paper's data.");

  const auto spec = iolib::CheckpointSpec::nekcemWeakScaling(kNp);
  std::printf("\ncheckpoint volume: %.0f GB per step\n",
              static_cast<double>(kNp) *
                  static_cast<double>(spec.bytesPerRank()) / 1e9);

  struct Row {
    const char* name;
    iolib::StrategyConfig cfg;
    double bandwidth = 0;
    double makespan = 0;
  };
  std::vector<Row> rows = {
      {"coIO 64:1", iolib::StrategyConfig::coIo(kNp / 64)},
      {"rbIO 64:1 nf=ng", iolib::StrategyConfig::rbIo(64, true)},
      {"rbIO 128:1 nf=ng", iolib::StrategyConfig::rbIo(128, true)},
  };
  for (auto& row : rows) {
    const auto& r = res.at(weakScaling(kNp, row.cfg));
    row.bandwidth = r.bandwidth;
    row.makespan = r.makespan;
    std::printf("  %-18s %8s  (makespan %s)\n", row.name,
                gbs(r.bandwidth).c_str(), secs(r.makespan).c_str());
  }
  // The 64K reference points for trend checks.
  const auto& rb64k = res.at(rbIo64(65536));
  const auto& co64k = res.at(coIo64(65536));

  std::vector<Check> checks;
  checks.push_back(
      {"rbIO 64:1 still beats coIO 64:1 at 131K",
       rows[1].bandwidth > rows[0].bandwidth,
       gbs(rows[1].bandwidth) + " vs " + gbs(rows[0].bandwidth)});
  checks.push_back(
      {"coIO 64:1 keeps degrading past 64K (8192 streams of thrash)",
       rows[0].bandwidth < co64k.bandwidth,
       gbs(rows[0].bandwidth) + " vs " + gbs(co64k.bandwidth) + " at 64K"});
  checks.push_back(
      {"rbIO 64:1 holds most of its 64K bandwidth at 131K",
       rows[1].bandwidth > 0.5 * rb64k.bandwidth,
       gbs(rows[1].bandwidth) + " vs " + gbs(rb64k.bandwidth) + " at 64K"});
  checks.push_back(
      {"retuning helps: np:ng=128:1 (nf=1024, the Fig. 8 optimum) beats "
       "64:1 (nf=2048) at this scale",
       rows[2].bandwidth > rows[1].bandwidth,
       gbs(rows[2].bandwidth) + " vs " + gbs(rows[1].bandwidth)});
  return checks;
}

std::vector<Scenario> scenarios(const Flags&) {
  return {coIo64(kNp), rbIo64(kNp),
          weakScaling(kNp, iolib::StrategyConfig::rbIo(128, true)),
          rbIo64(65536), coIo64(65536)};
}
}  // namespace forecast

// Extension: what the I/O strategies mean for fault tolerance — the
// paper's actual motivation ("when a component fails, the application in
// progress loses valuable work"). Combining each strategy's measured
// checkpoint cost with Young/Daly optimal-cadence theory at Intrepid's
// failure rates shows how rbIO converts cheap checkpoints into machine
// efficiency: checkpoint more often, lose less work, waste less I/O time.
namespace cadence {
constexpr int kNp = 65536;

std::vector<Check> render(const Flags&, const Results& res) {
  banner("Extension - optimal checkpoint cadence under failures",
         "Young/Daly theory driven by measured checkpoint costs at 64K.");

  constexpr int kNodes = kNp / 4;
  const double nodeMtbf = 3.0 * 365 * 86400;  // 3-year per-node MTBF
  const double mtbf = analysis::systemMtbf(kNodes, nodeMtbf);
  const double restart = 180.0;  // restart + re-read of the checkpoint
  std::printf("\nsystem MTBF at %d nodes (3-year node MTBF): %.0f s "
              "(~%.1f h)\n",
              kNodes, mtbf, mtbf / 3600);

  struct Row {
    const char* name;
    iolib::StrategyConfig cfg;
    double tc = 0;
    double interval = 0;
    double eff = 0;
  };
  std::vector<Row> rows = {
      {"1PFPP", iolib::StrategyConfig::onePfpp()},
      {"coIO 64:1", iolib::StrategyConfig::coIo(kNp / 64)},
      {"rbIO 64:1 nf=ng", iolib::StrategyConfig::rbIo(64, true)},
  };
  std::printf("\n  %-16s | %9s | %14s | %12s\n", "strategy", "Tc",
              "opt. interval", "efficiency");
  for (auto& row : rows) {
    const auto& r = res.at(weakScaling(kNp, row.cfg));
    // For rbIO the application-blocking cost is the writers' drain only
    // when cadence outpaces them; at the Daly optimum (minutes apart) the
    // writers always keep up, so Tc is the worker-side cost plus the
    // synchronisation to a consistent cut (one compute step's barrier).
    row.tc = row.cfg.kind == iolib::StrategyKind::kRbIo
                 ? std::max(r.workerMakespan, 0.25)
                 : r.makespan;
    row.interval = analysis::dalyInterval(row.tc, mtbf);
    row.eff = analysis::efficiency(row.interval, row.tc, restart, mtbf);
    std::printf("  %-16s | %7.1f s | %10.0f s | %10.1f%%\n", row.name,
                row.tc, row.interval, 100 * row.eff);
  }

  const double gained = 100 * (rows[2].eff - rows[0].eff);
  std::printf("\nrbIO recovers %.1f percentage points of the machine "
              "relative to 1PFPP;\nover a year of Intrepid time that is "
              "~%.0f node-years of compute.\n",
              gained, gained / 100.0 * kNodes);

  std::vector<Check> checks;
  checks.push_back({"1PFPP's cost forces hour-scale checkpoint intervals",
                    rows[0].interval > 3600,
                    std::to_string(rows[0].interval) + " s"});
  checks.push_back({"rbIO checkpoints can run minutes apart",
                    rows[2].interval < 600,
                    std::to_string(rows[2].interval) + " s"});
  checks.push_back({"rbIO yields the best machine efficiency",
                    rows[2].eff > rows[1].eff && rows[1].eff > rows[0].eff,
                    "ordering holds"});
  checks.push_back({"the efficiency gap vs 1PFPP is material (>5 points)",
                    rows[2].eff - rows[0].eff > 0.05,
                    std::to_string(gained) + " points"});
  return checks;
}

std::vector<Scenario> scenarios(const Flags&) {
  return {weakScaling(kNp, iolib::StrategyConfig::onePfpp()), coIo64(kNp),
          rbIo64(kNp)};
}
}  // namespace cadence

// Extension: strong scaling of the raw write path. The authors' earlier
// study (Fu et al., LSPP/IPDPS 2010, reference [3]) ran "an extensive
// amount of strong scaling tests" to find the best raw bandwidth; the
// CLUSTER'11 paper then applied those optima in weak scaling. Here the
// checkpoint volume is pinned to the 16K-rank problem (~39 GB) while the
// partition grows — per-rank data shrinks, so fixed per-rank overheads and
// metadata costs erode the gains differently per strategy.
namespace strong {
std::vector<Approach> rows(int np) {
  return {
      {"coIO 64:1", iolib::StrategyConfig::coIo(np / 64)},
      {"rbIO 64:1 nf=ng", iolib::StrategyConfig::rbIo(64, true)},
      {"rbIO nf=1024", iolib::StrategyConfig::rbIo(np / 1024, true)},
  };
}

/// The checkpoint at fixed total volume: 16384 * 2.4 MB, so the per-rank
/// size shrinks with np. At 16K it is the weak-scaling checkpoint, and at
/// 64K "rbIO nf=1024" is the "rbIO 64:1 nf=ng" configuration: both read
/// one simulation.
Scenario fixedVolume(int np, const iolib::StrategyConfig& cfg) {
  const double totalBytes = 16384.0 * 2'400'000.0;
  Scenario s = weakScaling(np, cfg);
  s.spec.fieldBytesPerRank =
      static_cast<sim::Bytes>(totalBytes / np / s.spec.numFields);
  return s;
}

std::vector<Check> render(const Flags&, const Results& res) {
  banner("Extension - strong scaling at fixed ~39 GB checkpoint volume",
         "The reference-[3] methodology on the simulated Intrepid.");

  std::map<std::string, std::map<int, double>> grid;  // name -> np -> B/s
  for (int np : kScales) {
    std::printf("\n-- np = %d (%.2f MB per rank) --\n", np,
                static_cast<double>(fixedVolume(np, {}).spec.bytesPerRank()) /
                    1e6);
    for (const Approach& row : rows(np)) {
      const auto& r = res.at(fixedVolume(np, row.cfg));
      grid[row.name][np] = r.bandwidth;
      std::printf("  %-16s %8s (makespan %s)\n", row.name.c_str(),
                  gbs(r.bandwidth).c_str(), secs(r.makespan).c_str());
    }
  }

  std::vector<Check> checks;
  // Holding nf at the Fig. 8 optimum (1024) keeps strong scaling flat-to-
  // rising; letting nf grow with np (64:1) eventually overshoots it.
  const auto& tuned = grid.at("rbIO nf=1024");
  checks.push_back(
      {"tuned rbIO (nf=1024) holds its bandwidth under strong scaling",
       tuned.at(65536) > 0.75 * tuned.at(16384),
       gbs(tuned.at(65536)) + " vs " + gbs(tuned.at(16384))});
  const auto& ratio64 = grid.at("rbIO 64:1 nf=ng");
  checks.push_back(
      {"fixed-ratio rbIO (64:1) falls behind the tuned nf at 64K "
       "(nf=1024 is the machine's sweet spot, not a ratio)",
       tuned.at(65536) >= 0.95 * ratio64.at(65536),
       gbs(tuned.at(65536)) + " vs " + gbs(ratio64.at(65536))});
  checks.push_back(
      {"fixed-ratio rbIO climbs toward the optimum as its nf approaches "
       "1024 (256 -> 512 -> 1024 files)",
       ratio64.at(16384) < ratio64.at(32768) &&
           ratio64.at(32768) < ratio64.at(65536),
       gbs(ratio64.at(16384)) + " -> " + gbs(ratio64.at(65536))});
  // NB: with only ~0.6 MB per rank, blocking coIO 64:1 is competitive —
  // rbIO's advantage is a *weak-scaling* phenomenon (Fig. 5), where per-
  // rank volume stays constant and writer streams saturate the system.
  checks.push_back(
      {"all tuned approaches stay within 1.5x of each other at 64K "
       "(small per-rank volumes blur the strategy gap)",
       grid.at("coIO 64:1").at(65536) < 1.5 * ratio64.at(65536),
       gbs(grid.at("coIO 64:1").at(65536)) + " vs " +
           gbs(ratio64.at(65536))});
  return checks;
}

std::vector<Scenario> scenarios(const Flags&) {
  std::vector<Scenario> out;
  for (int np : kScales)
    for (const Approach& row : rows(np))
      out.push_back(fixedVolume(np, row.cfg));
  return out;
}
}  // namespace strong

// Section III-A: NekCEM's compute performance. Two parts:
//  1. the calibrated at-scale performance model against the paper's
//     published anchors (0.13 s/step at 131K ranks; 75% strong-scaling
//     efficiency), and
//  2. the real mini SEDG solver running on the host: spectral convergence
//     and per-step cost scaling with (N+1)^4-ish tensor work.
namespace compute {
std::vector<Check> render(const Flags&, const Results&) {
  banner("Section III-A - NekCEM compute performance",
         "Performance-model anchors plus the real mini solver.");

  nekcem::PerfModel model;
  std::printf("\n== at-scale model ==\n");
  const double anchor = model.stepSeconds(273000, 15, 131072);
  std::printf("E=273K N=15 P=131072: %.3f s/step (paper: ~0.13 s)\n", anchor);
  const double eff = model.efficiency(8530, 131072, 68250, 16384);
  std::printf("efficiency at n/P=8530 vs base n/P=68250: %.0f%% "
              "(paper: 75%%)\n",
              eff * 100);
  std::printf("weak-scaling checkpoint-run step (n/P=17000): %.3f s\n",
              model.weakScalingStepSeconds());
  for (int np : {16384, 32768, 65536}) {
    // 68K elements per 16K ranks, each of (N+1)^3 = 16^3 grid points.
    const std::uint64_t elements =
        68000 * static_cast<std::uint64_t>(np / 16384);
    std::printf("  (E,P)=(%3dK,%dK): n=%.0fM points, t_step %.3f s\n",
                static_cast<int>(elements / 1000), np / 1024,
                static_cast<double>(elements) * 4096 / 1e6,
                model.stepSeconds(elements, 15, np));
  }

  std::printf("\n== real mini solver (host) ==\n");
  struct Row {
    int order;
    double error;
    double secondsPerStep;
    std::size_t points;
  };
  std::vector<Row> rows;
  for (int order : {2, 4, 6, 8}) {
    nekcem::BoxMesh mesh(2, 2, 2, 1, 1, 1, nekcem::Boundary::kPeriodic);
    nekcem::MaxwellSolver solver(mesh, order);
    auto wave = nekcem::planeWaveX(1.0);
    solver.setSolution(wave, 0.0);
    const double dt = 0.5 * solver.stableDt();
    const int steps = static_cast<int>(0.05 / dt) + 1;
    const WallTimer timer;
    solver.run(steps, dt);
    const double wall = timer.seconds();
    rows.push_back({order, solver.maxError(wave), wall / steps,
                    solver.gridPoints()});
    std::printf("  N=%d: %7zu points, max error %.2e\n", order,
                solver.gridPoints(), solver.maxError(wave));
    // Host time per step varies run to run: stderr, like every announce
    // line, so stdout stays comparable with plain diff.
    std::fflush(stdout);
    std::fprintf(stderr, "[host] N=%d: %.3f ms/step\n", order,
                 1e3 * wall / steps);
  }

  std::vector<Check> checks;
  checks.push_back({"model hits the 0.13 s/step anchor",
                    std::abs(anchor - 0.13) < 0.01,
                    std::to_string(anchor) + " s"});
  checks.push_back({"model reproduces the 75% efficiency claim",
                    std::abs(eff - 0.75) < 0.02,
                    std::to_string(eff * 100) + "%"});
  checks.push_back({"weak scaling: equal n/P gives equal step time",
                    model.stepSeconds(17000, 15) ==
                        model.weakScalingStepSeconds(),
                    "scale-invariant"});
  checks.push_back({"solver shows spectral convergence (error N=8 << N=4)",
                    rows[3].error < rows[1].error * 1e-2,
                    std::to_string(rows[3].error) + " vs " +
                        std::to_string(rows[1].error)});
  checks.push_back({"solver cost grows with order",
                    rows[3].secondsPerStep > rows[0].secondsPerStep,
                    "N=8 slower than N=2 per step"});
  return checks;
}
}  // namespace compute

/// One figure: the scenarios it reads (none: it simulates nothing), the
/// render that prints its section and returns its checks, and what it keeps
/// of its scenarios beyond their results (a Keep mask).
struct Entry {
  const char* name;
  std::vector<Scenario> (*scenarios)(const Flags&);
  std::vector<Check> (*render)(const Flags&, const Results&);
  unsigned keep = 0;
};

const Entry kFigures[] = {
    {"fig5_write_bandwidth", fig5::scenarios, fig5::render},
    {"fig6_checkpoint_time", fig6::scenarios, fig6::render},
    {"fig7_ckpt_compute_ratio", fig7::scenarios, fig7::render},
    {"fig8_rbio_nf_sweep", fig8::scenarios, fig8::render},
    {"fig9_dist_1pfpp", fig9::scenarios, fig9::render},
    {"fig10_dist_coio", fig10::scenarios, fig10::render},
    {"fig11_dist_rbio", fig11::scenarios, fig11::render},
    {"fig12_write_activity", fig12::scenarios, fig12::render, kKeepRecords},
    {"table1_perceived_bw", table1::scenarios, table1::render},
    {"eq1_production_improvement", eq1::scenarios, eq1::render},
    {"eq27_speedup_model", eq27::scenarios, eq27::render},
    {"eq7_measured_vs_model", eq7::scenarios, eq7::render, kKeepAttribution},
    {"mesh_read_time", mesh::scenarios, mesh::render},
    {"ablation_pvfs", pvfs::scenarios, pvfs::render},
    {"ablation_romio_knobs", romio::scenarios, romio::render},
    {"ablation_1pfpp_dirs", dirs::scenarios, dirs::render},
    {"production_campaign", campaign::scenarios, campaign::render},
    {"extension_multilevel", multilevel::scenarios, multilevel::render},
    {"extension_131k_forecast", forecast::scenarios, forecast::render},
    {"extension_optimal_cadence", cadence::scenarios, cadence::render},
    {"extension_strong_scaling", strong::scenarios, strong::render},
    {"nekcem_scaling", nullptr, compute::render},
};

}  // namespace
}  // namespace bgckpt::bench

using namespace bgckpt::bench;

int main(int argc, char** argv) {
  const Flags flags = parseFlags(argc, argv);
  for (const std::string& name : flags.figures) {
    if (std::none_of(std::begin(kFigures), std::end(kFigures),
                     [&](const Entry& e) { return name == e.name; })) {
      std::fprintf(stderr, "error: unknown figure %s; the figures are:\n",
                   name.c_str());
      for (const Entry& e : kFigures) std::fprintf(stderr, "  %s\n", e.name);
      return 2;
    }
  }
  std::vector<const Entry*> selected;
  std::vector<std::vector<Scenario>> declared;
  for (const Entry& e : kFigures) {
    if (!flags.figures.empty() &&
        std::count(flags.figures.begin(), flags.figures.end(), e.name) == 0)
      continue;
    selected.push_back(&e);
    declared.push_back(e.scenarios ? e.scenarios(flags)
                                   : std::vector<Scenario>{});
  }

  // One simulation per distinct scenario: checkpoints, then campaigns,
  // multilevel checkpoints and mesh reads (Scenario::run's order), each kind
  // largest np first so the long runs start early. The order is fixed, so
  // artifact numbering, perf records and the order of paper.events' lines
  // do not depend on --threads; changing it re-records that golden.
  std::vector<Scenario> scenarios;
  for (const auto& list : declared)
    for (const Scenario& s : list)
      if (std::find(scenarios.begin(), scenarios.end(), s) == scenarios.end())
        scenarios.push_back(s);
  std::stable_sort(scenarios.begin(), scenarios.end(),
                   [](const Scenario& a, const Scenario& b) {
                     if (a.run.index() != b.run.index())
                       return a.run.index() < b.run.index();
                     return a.np > b.np;
                   });
  // A scenario keeps what any selected figure that declares it asks for.
  std::vector<unsigned> keep(scenarios.size(), 0);
  for (std::size_t i = 0; i < selected.size(); ++i)
    for (const Scenario& s : declared[i])
      keep[static_cast<std::size_t>(
          std::find(scenarios.begin(), scenarios.end(), s) -
          scenarios.begin())] |= selected[i]->keep;
  std::fprintf(stderr, "[paper] %zu figure(s), %zu scenario(s)\n",
               selected.size(), scenarios.size());
  const std::vector<Outcome> outcomes = simulate(scenarios, keep);

  int failed = 0;
  for (std::size_t i = 0; i < selected.size(); ++i)
    failed += printChecks(selected[i]->render(
        flags, Results{selected[i]->name, declared[i], scenarios, outcomes}));
  return finish(failed);
}
