#include "analysis/ascii.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace bgckpt::analysis {

std::string barChart(const std::vector<Bar>& bars, const std::string& unit,
                     int width, bool logScale) {
  if (bars.empty()) return "(no data)\n";
  double maxVal = 0, minVal = 1e300;
  std::size_t labelWidth = 0;
  for (const auto& b : bars) {
    maxVal = std::max(maxVal, b.value);
    if (b.value > 0) minVal = std::min(minVal, b.value);
    labelWidth = std::max(labelWidth, b.label.size());
  }
  if (maxVal <= 0) maxVal = 1;
  std::ostringstream out;
  for (const auto& b : bars) {
    double frac;
    if (logScale && b.value > 0 && maxVal > minVal) {
      frac = (std::log10(b.value) - std::log10(minVal) + 0.3) /
             (std::log10(maxVal) - std::log10(minVal) + 0.3);
    } else {
      frac = b.value / maxVal;
    }
    const int len = std::clamp(static_cast<int>(frac * width), b.value > 0 ? 1 : 0, width);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%10.3f %s", b.value, unit.c_str());
    out << "  " << b.label << std::string(labelWidth - b.label.size(), ' ')
        << " |" << std::string(static_cast<std::size_t>(len), '#')
        << std::string(static_cast<std::size_t>(width - len), ' ') << "|"
        << buf << "\n";
  }
  return out.str();
}

std::string scatter(const std::vector<double>& xs,
                    const std::vector<double>& ys, int width, int height,
                    const std::string& xLabel, const std::string& yLabel) {
  if (xs.empty() || xs.size() != ys.size()) return "(no data)\n";
  const double xMax = *std::max_element(xs.begin(), xs.end());
  const double yMax = *std::max_element(ys.begin(), ys.end());
  const double xMin = *std::min_element(xs.begin(), xs.end());
  const double ySpan = yMax > 0 ? yMax : 1.0;
  const double xSpan = xMax > xMin ? xMax - xMin : 1.0;

  std::vector<std::string> grid(static_cast<std::size_t>(height),
                                std::string(static_cast<std::size_t>(width), ' '));
  for (std::size_t i = 0; i < xs.size(); ++i) {
    auto col = static_cast<int>((xs[i] - xMin) / xSpan * (width - 1));
    auto row = static_cast<int>(ys[i] / ySpan * (height - 1));
    col = std::clamp(col, 0, width - 1);
    row = std::clamp(row, 0, height - 1);
    auto& cell = grid[static_cast<std::size_t>(height - 1 - row)]
                     [static_cast<std::size_t>(col)];
    cell = cell == ' ' ? '.' : (cell == '.' ? 'x' : '#');
  }

  std::ostringstream out;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", yMax);
  out << "  " << yLabel << " (max " << buf << ")\n";
  for (const auto& row : grid) out << "  |" << row << "\n";
  out << "  +" << std::string(static_cast<std::size_t>(width), '-') << "\n";
  std::snprintf(buf, sizeof(buf), "%.6g", xMax);
  out << "   " << xLabel << " 0 .. " << buf << "\n";
  return out.str();
}

std::string activityStrip(const std::vector<std::string>& names,
                          const std::vector<std::vector<int>>& series,
                          double binSeconds) {
  static const char kShades[] = " .:-=+*#%@";
  int maxCount = 1;
  for (const auto& s : series)
    for (int v : s) maxCount = std::max(maxCount, v);
  std::size_t nameWidth = 0;
  for (const auto& n : names) nameWidth = std::max(nameWidth, n.size());
  std::ostringstream out;
  for (std::size_t s = 0; s < series.size(); ++s) {
    out << "  " << names[s] << std::string(nameWidth - names[s].size(), ' ')
        << " |";
    for (int v : series[s]) {
      const int shade =
          v <= 0 ? 0
                 : 1 + static_cast<int>(8.0 * (v - 1) / std::max(1, maxCount - 1));
      out << kShades[std::clamp(shade, 0, 9)];
    }
    out << "|\n";
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "  (each column = %.2f s; shade = active writers, max %d)\n",
                binSeconds, maxCount);
  out << buf;
  return out.str();
}

std::string waterfall(const std::vector<WaterfallSpan>& spans, double t0,
                      double t1, int width) {
  if (spans.empty()) return "  (no spans)\n";
  const double window = t1 - t0;
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return spans[a].start < spans[b].start;
                   });
  std::size_t labelWidth = 3;
  for (const auto& s : spans) labelWidth = std::max(labelWidth, s.label.size());

  std::ostringstream out;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "  %-*s %10s %10s  |%-*s|\n",
                static_cast<int>(labelWidth), "hop", "+start", "dur", width,
                " 0 .. e2e");
  out << buf;
  for (const std::size_t i : order) {
    const WaterfallSpan& s = spans[i];
    // Column range of this span inside the request window.
    int c0 = 0, c1 = 0;
    if (window > 0) {
      c0 = static_cast<int>((s.start - t0) / window *
                            static_cast<double>(width));
      c1 = static_cast<int>((s.start + s.dur - t0) / window *
                            static_cast<double>(width));
      c0 = std::clamp(c0, 0, width - 1);
      c1 = std::clamp(c1, c0, width);
    }
    std::string bar(static_cast<std::size_t>(width), ' ');
    if (c1 == c0) {
      bar[static_cast<std::size_t>(c0)] = '.';
    } else {
      for (int c = c0; c < c1; ++c) bar[static_cast<std::size_t>(c)] = '=';
    }
    std::snprintf(buf, sizeof(buf), "  %-*s %10.4g %10.4g  |%s|",
                  static_cast<int>(labelWidth), s.label.c_str(), s.start - t0,
                  s.dur, bar.c_str());
    out << buf;
    if (s.bytes > 0) {
      std::snprintf(buf, sizeof(buf), " %.3g MiB",
                    static_cast<double>(s.bytes) / (1024.0 * 1024.0));
      out << buf;
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace bgckpt::analysis
