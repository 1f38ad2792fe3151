// Fixture: wall-clock, assert (call and include), obs-emit and
// optrace-mint positives in one sim-layer file.
#include <cassert>

struct Event {};
struct Sink {
  void emit(const Event&) {}
};
int mintOpTrace();

double jitter() {
  return static_cast<double>(rand());  // wall-clock: libc randomness
}

void record(Sink& sink) {
  assert(jitter() >= 0.0);  // assert: vanishes under NDEBUG
  Event ev;
  sink.emit(ev);            // obs-emit: direct sink emit outside src/obs
  (void)mintOpTrace();      // optrace-mint: below the strategy layer
}
