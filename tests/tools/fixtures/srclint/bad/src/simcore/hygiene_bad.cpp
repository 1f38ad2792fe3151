// Fixture: raw-new, priority-queue, static-mutable (namespace-scope and
// function-local), and a same-file shard-global-read.
#include <queue>

namespace sim {

int gTicksTotal = 0;            // static-mutable: namespace scope, no keyword

namespace {
double gScaleFactor = 1.0;      // static-mutable: anonymous namespace
}  // namespace

int bumpTicks() {
  static int callCount = 0;     // static-mutable: function-local static
  ++callCount;
  gTicksTotal += callCount;     // shard-global-read: same-file mutable global
  return gTicksTotal;
}

void queues() {
  std::priority_queue<int> backlog;  // priority-queue: a second event queue
  backlog.push(bumpTicks());
  int* scratch = new int[4];    // raw-new: simcore allocations use the arena
  delete[] scratch;             // raw-new: and the matching delete
  (void)gScaleFactor;
}

}  // namespace sim
