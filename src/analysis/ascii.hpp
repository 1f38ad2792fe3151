// Terminal rendering helpers for the figure benches: horizontal bar charts
// (optionally log-scaled), scatter grids (the per-rank I/O time figures),
// and multi-series columns (the nf sweep).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bgckpt::analysis {

struct Bar {
  std::string label;
  double value = 0;
};

/// Horizontal bar chart. Values must be positive for logScale.
std::string barChart(const std::vector<Bar>& bars, const std::string& unit,
                     int width = 52, bool logScale = false);

/// Scatter of (x, y) points on a character grid; used for the Fig. 9-11
/// per-rank I/O time distributions.
std::string scatter(const std::vector<double>& xs,
                    const std::vector<double>& ys, int width = 72,
                    int height = 20, const std::string& xLabel = "x",
                    const std::string& yLabel = "y");

/// Time-binned activity strip (Fig. 12): one row per series, column
/// intensity from counts.
std::string activityStrip(const std::vector<std::string>& names,
                          const std::vector<std::vector<int>>& series,
                          double binSeconds);

/// One span row of a request waterfall (trace_report --waterfall).
struct WaterfallSpan {
  std::string label;
  double start = 0;  // absolute simulated seconds
  double dur = 0;
  std::uint64_t bytes = 0;
};

/// Hop waterfall for one traced request: one row per span, with a bar
/// positioned inside the request's [t0, t1] window so queueing gaps and
/// overlap are visible at a glance. Spans render in start order; zero-width
/// spans mark their position with a single tick.
std::string waterfall(const std::vector<WaterfallSpan>& spans, double t0,
                      double t1, int width = 56);

}  // namespace bgckpt::analysis
