#include "obs/trace.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <stdexcept>

namespace bgckpt::obs {

namespace {

// failedWrites() storage. Guarded: the stacks of a --threads prefetch
// export from their worker threads.
std::mutex gFailedWritesMu;
std::vector<std::string> gFailedWrites;

void noteFailedWrite(const std::string& path) {
  std::lock_guard<std::mutex> lock(gFailedWritesMu);
  gFailedWrites.push_back(path);
}

}  // namespace

bool writeArtifact(const std::string& path, std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr;
  if (ok) {
    ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    // fclose flushes the buffered tail, which is the write a full disk fails.
    ok = std::fclose(f) == 0 && ok;
  }
  if (!ok) noteFailedWrite(path);
  return ok;
}

std::vector<std::string> failedWrites() {
  std::lock_guard<std::mutex> lock(gFailedWritesMu);
  return gFailedWrites;
}

const char* layerName(Layer layer) {
  switch (layer) {
    case Layer::kScheduler: return "scheduler";
    case Layer::kNetwork: return "network";
    case Layer::kStorage: return "storage";
    case Layer::kFilesystem: return "filesystem";
    case Layer::kMpi: return "mpi";
    case Layer::kIo: return "io";
    case Layer::kApp: return "app";
  }
  return "?";
}

ChromeTraceSink::ChromeTraceSink(std::ostream& chrome) : chrome_(&chrome) {
  *chrome_ << "[\n";
}

ChromeTraceSink::ChromeTraceSink(std::unique_ptr<std::ostream> chrome,
                                 std::string path)
    : owned_(std::move(chrome)), chrome_(owned_.get()), path_(std::move(path)) {
  *chrome_ << "[\n";
}

std::unique_ptr<ChromeTraceSink> ChromeTraceSink::toFile(
    const std::string& path) {
  auto chrome = std::make_unique<std::ofstream>(path);
  if (!*chrome) throw std::runtime_error("ChromeTraceSink: cannot open " + path);
  return std::unique_ptr<ChromeTraceSink>(
      new ChromeTraceSink(std::move(chrome), path));
}

ChromeTraceSink::~ChromeTraceSink() { close(); }

void ChromeTraceSink::close() {
  if (closed_) return;
  closed_ = true;
  *chrome_ << "\n]\n";
  flush();
  checkStream();
}

void ChromeTraceSink::flush() { chrome_->flush(); }

void ChromeTraceSink::finalize(sim::SimTime /*horizon*/) {
  flush();
  checkStream();
}

void ChromeTraceSink::checkStream() {
  // A borrowed stream (no path) is its owner's to check. A failed write or
  // flush leaves the stream bad for good, so one report per sink.
  if (failed_ || path_.empty() || *chrome_) return;
  failed_ = true;
  noteFailedWrite(path_);
}

void ChromeTraceSink::writeSeparator() {
  if (anyWritten_) *chrome_ << ",\n";
  anyWritten_ = true;
}

void ChromeTraceSink::ensureMetadata(Layer layer, int tid) {
  const auto pid = static_cast<unsigned>(layer);
  char buf[160];
  if (!(layersSeen_ & layerBit(layer))) {
    layersSeen_ |= layerBit(layer);
    writeSeparator();
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                  "\"tid\":0,\"args\":{\"name\":\"%s\"}}",
                  pid, layerName(layer));
    *chrome_ << buf;
  }
  const std::uint64_t key =
      (static_cast<std::uint64_t>(pid) << 32) | static_cast<std::uint32_t>(tid);
  if (threadsSeen_.insert(key).second) {
    writeSeparator();
    const char* role = layer == Layer::kScheduler ? "root" : "rank";
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%u,"
                  "\"tid\":%d,\"args\":{\"name\":\"%s %d\"}}",
                  pid, tid, role, tid);
    *chrome_ << buf;
  }
}

void ChromeTraceSink::event(const TraceEvent& ev) {
  if (closed_) return;
  ++eventsWritten_;
  ensureMetadata(ev.layer, ev.tid);
  writeSeparator();
  char buf[384];
  int n = std::snprintf(
      buf, sizeof(buf),
      "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\",\"pid\":%d,"
      "\"tid\":%d,\"ts\":%.3f",
      ev.name, layerName(ev.layer), ev.phase, static_cast<int>(ev.layer),
      ev.tid, ev.ts * 1e6);
  if (ev.phase == 'X')
    n += std::snprintf(buf + n, sizeof(buf) - static_cast<std::size_t>(n),
                       ",\"dur\":%.3f", ev.dur * 1e6);
  // Args block: only what the event actually carries.
  if (ev.hasBytes || ev.src >= 0 || ev.hasValue) {
    n += std::snprintf(buf + n, sizeof(buf) - static_cast<std::size_t>(n),
                       ",\"args\":{");
    bool first = true;
    if (ev.hasBytes) {
      n += std::snprintf(buf + n, sizeof(buf) - static_cast<std::size_t>(n),
                         "\"bytes\":%" PRIu64, ev.bytes);
      first = false;
    }
    if (ev.src >= 0) {
      n += std::snprintf(buf + n, sizeof(buf) - static_cast<std::size_t>(n),
                         "%s\"src\":%d,\"dst\":%d", first ? "" : ",", ev.src,
                         ev.dst);
      first = false;
    }
    if (ev.hasValue)
      n += std::snprintf(buf + n, sizeof(buf) - static_cast<std::size_t>(n),
                         "%s\"value\":%.9g", first ? "" : ",", ev.value);
    n += std::snprintf(buf + n, sizeof(buf) - static_cast<std::size_t>(n),
                       "}");
  }
  std::snprintf(buf + n, sizeof(buf) - static_cast<std::size_t>(n), "}");
  *chrome_ << buf;
}

}  // namespace bgckpt::obs
