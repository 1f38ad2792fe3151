// Fixture: the wall-clock carve-out must not leak past its allowlisted
// path. This file sits in src/obs, which measures simulated time only, so
// both host-clock identifiers are findings.
#include <chrono>

double tick() {
  const auto t0 = std::chrono::steady_clock::now();  // wall-clock
  const auto t1 = std::chrono::system_clock::now();  // wall-clock
  return std::chrono::duration<double>(t0.time_since_epoch()).count() +
         std::chrono::duration<double>(t1.time_since_epoch()).count();
}
