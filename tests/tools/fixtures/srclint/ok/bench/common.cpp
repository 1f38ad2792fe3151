// Fixture: the wall-clock allowlist entry, "bench/common." — the shared
// harness plumbing owns the one sanctioned stopwatch (WallTimer), so its
// host-clock use is clean without srclint:allow markers.
#include <chrono>

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

double measure() { return WallTimer().seconds(); }
