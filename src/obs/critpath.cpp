#include "obs/critpath.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>

namespace bgckpt::obs {

namespace {

/// File-path labels (delay edges default to the scheduling site's file)
/// shrink to their basename; primitive labels pass through.
const char* trimLabel(const char* label) {
  if (label == nullptr) return "?";
  const char* slash = std::strrchr(label, '/');
  return slash != nullptr ? slash + 1 : label;
}

void appendEscaped(std::string& out, const char* s) {
  for (; *s; ++s) {
    if (*s == '"' || *s == '\\') out.push_back('\\');
    out.push_back(*s);
  }
}

}  // namespace

void CritPathRecorder::exportTo(std::string jsonPath) {
  jsonPath_ = std::move(jsonPath);
}

void CritPathRecorder::onEventScheduled(std::uint64_t seq,
                                        std::uint64_t parentSeq,
                                        sim::SimTime when, sim::WakeKind kind,
                                        const char* label) {
  if (!haveBase_) {
    baseSeq_ = seq;
    haveBase_ = true;
  }
  // Sequence numbers are consecutive while the hook stays installed; pad
  // any gap (hook detached and reattached) with terminator nodes so the
  // dense index never lies.
  if (seq < baseSeq_) return;  // out-of-order: cannot index densely
  const std::size_t slot = static_cast<std::size_t>(seq - baseSeq_);
  if (slot > nodes_.size()) nodes_.resize(slot);
  Node node;
  node.parent = parentSeq;
  node.time = when;
  node.kind = kind;
  node.label = label;
  if (slot == nodes_.size()) {
    nodes_.push_back(node);
  } else {
    nodes_[slot] = node;
  }
}

CritPathRecorder::Path CritPathRecorder::computePath(
    sim::SimTime horizon) const {
  Path path;
  path.horizon = horizon;
  path.eventsRecorded = nodes_.size();
  for (int k = 0; k < sim::kNumWakeKinds; ++k)
    path.byKind[static_cast<std::size_t>(k)].label =
        sim::wakeKindName(static_cast<sim::WakeKind>(k));
  if (nodes_.empty()) return path;

  // Terminal event: max (time, seq). seq grows with the index, so the last
  // slot holding the max time wins ties exactly like the dispatch order.
  std::size_t terminal = 0;
  for (std::size_t i = 1; i < nodes_.size(); ++i)
    if (nodes_[i].time >= nodes_[terminal].time) terminal = i;

  std::map<std::string, Bucket> labels;
  std::vector<Step> walked;  // terminal -> root order
  std::size_t idx = terminal;
  while (true) {
    const Node& n = nodes_[idx];
    const bool hasParent = n.parent != sim::SchedulerHooks::kNoParent &&
                           n.parent >= baseSeq_ &&
                           n.parent - baseSeq_ < nodes_.size();
    const sim::SimTime parentTime =
        hasParent ? nodes_[static_cast<std::size_t>(n.parent - baseSeq_)].time
                  : 0.0;
    Step step;
    step.seq = baseSeq_ + idx;
    step.time = n.time;
    step.edge = n.time - parentTime;
    step.kind = n.kind;
    step.label = n.label;
    walked.push_back(step);

    Bucket& k = path.byKind[static_cast<std::size_t>(n.kind)];
    k.seconds += step.edge;
    ++k.edges;
    Bucket& l = labels[trimLabel(n.label)];
    l.seconds += step.edge;
    ++l.edges;

    if (!hasParent) break;
    idx = static_cast<std::size_t>(n.parent - baseSeq_);
  }
  path.steps = walked.size();
  for (const Step& s : walked) path.pathSeconds += s.edge;

  path.byLabel.reserve(labels.size());
  for (auto& [name, bucket] : labels) {
    bucket.label = name;
    path.byLabel.push_back(bucket);
  }
  std::sort(path.byLabel.begin(), path.byLabel.end(),
            [](const Bucket& a, const Bucket& b) {
              if (a.seconds != b.seconds) return a.seconds > b.seconds;
              return a.label < b.label;
            });

  const std::size_t tailLen = std::min(kTailSteps, walked.size());
  path.tail.assign(walked.begin(),
                   walked.begin() + static_cast<std::ptrdiff_t>(tailLen));
  std::reverse(path.tail.begin(), path.tail.end());  // chronological
  return path;
}

std::string CritPathRecorder::Path::toJson() const {
  std::string out;
  char buf[128];
  auto addf = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    out += buf;
  };
  out += "{\n  \"schema\": \"";
  out += kSchemaVersion;
  out += "\",\n";
  addf("  \"horizon_seconds\": %.9g,\n", static_cast<double>(horizon));
  addf("  \"events_recorded\": %llu,\n",
       static_cast<unsigned long long>(eventsRecorded));
  addf("  \"path_steps\": %zu,\n", steps);
  addf("  \"path_seconds\": %.9g,\n", static_cast<double>(pathSeconds));
  out += "  \"by_kind\": [\n";
  for (std::size_t k = 0; k < byKind.size(); ++k) {
    addf("    {\"kind\": \"%s\", \"seconds\": %.9g, \"edges\": %llu}%s\n",
         byKind[k].label.c_str(), byKind[k].seconds,
         static_cast<unsigned long long>(byKind[k].edges),
         k + 1 < byKind.size() ? "," : "");
  }
  out += "  ],\n  \"by_label\": [\n";
  for (std::size_t i = 0; i < byLabel.size(); ++i) {
    out += "    {\"label\": \"";
    appendEscaped(out, byLabel[i].label.c_str());
    addf("\", \"seconds\": %.9g, \"edges\": %llu}%s\n", byLabel[i].seconds,
         static_cast<unsigned long long>(byLabel[i].edges),
         i + 1 < byLabel.size() ? "," : "");
  }
  out += "  ],\n  \"tail\": [\n";
  for (std::size_t i = 0; i < tail.size(); ++i) {
    const Step& s = tail[i];
    out += "    {\"seq\": ";
    addf("%llu, \"t\": %.9g, \"edge\": %.9g, \"kind\": \"%s\", \"label\": \"",
         static_cast<unsigned long long>(s.seq), static_cast<double>(s.time),
         static_cast<double>(s.edge), sim::wakeKindName(s.kind));
    appendEscaped(out, trimLabel(s.label));
    out += i + 1 < tail.size() ? "\"},\n" : "\"}\n";
  }
  out += "  ]\n}\n";
  return out;
}

void CritPathRecorder::finalize(sim::SimTime horizon) {
  if (finalized_) return;
  finalized_ = true;
  path_ = computePath(horizon);
  if (!jsonPath_.empty()) writeArtifact(jsonPath_, path_.toJson());
}

}  // namespace bgckpt::obs
