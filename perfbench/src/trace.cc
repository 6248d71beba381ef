#include "trace.h"

#include <algorithm>
#include <fstream>
#include <unordered_map>
#include <utility>

namespace perfbench {

const char* LayerName(Layer layer) {
  static constexpr const char* kNames[kNumLayers] = {
      "serve", "storage", "ivm", "core", "ckpt", "sim", "tpc"};
  return kNames[static_cast<size_t>(layer)];
}

SpanBuffer::SpanBuffer(uint32_t thread, size_t expected) : thread_(thread) {
  spans_.reserve(expected);
}

uint64_t SpanBuffer::Add(const char* name, Layer layer, int64_t start_ns,
                         int64_t end_ns, uint64_t parent, uint64_t group,
                         uint64_t id) {
  if (id == 0) id = NextId();
  spans_.push_back(Span{id, parent, group, start_ns, end_ns, name, layer});
  return id;
}

SpanBuffer* Tracer::NewBuffer(size_t expected) {
  if (!enabled_) return nullptr;
  buffers_.push_back(std::make_unique<SpanBuffer>(
      static_cast<uint32_t>(buffers_.size()), expected));
  return buffers_.back().get();
}

TraceAnalysis Tracer::Analyze() const {
  TraceAnalysis out;
  std::vector<const Span*> all;
  for (const auto& buffer : buffers_) {
    for (const Span& span : buffer->spans()) all.push_back(&span);
  }
  out.spans = all.size();
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(all.size());
  for (size_t i = 0; i < all.size(); ++i) index.emplace(all[i]->id, i);

  // Children's intervals per parent, clipped to the parent.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> covered(all.size());
  for (const Span* span : all) {
    if (span->parent == 0) continue;
    const auto it = index.find(span->parent);
    if (it == index.end()) {
      ++out.orphans;
      continue;
    }
    const Span& parent = *all[it->second];
    if (span->start_ns < parent.start_ns || span->end_ns > parent.end_ns) {
      ++out.fit_violations;
    }
    const int64_t lo = std::max(span->start_ns, parent.start_ns);
    const int64_t hi = std::min(span->end_ns, parent.end_ns);
    if (lo < hi) covered[it->second].emplace_back(lo, hi);
  }
  for (size_t i = 0; i < all.size(); ++i) {
    auto& intervals = covered[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t children_ns = 0;
    int64_t reach = all[i]->start_ns;
    for (const auto& [lo, hi] : intervals) {
      const int64_t from = std::max(lo, reach);
      if (hi > from) children_ns += hi - from;
      reach = std::max(reach, hi);
    }
    const int64_t self_ns = all[i]->end_ns - all[i]->start_ns - children_ns;
    out.self_ms[static_cast<size_t>(all[i]->layer)] +=
        static_cast<double>(self_ns) / 1e6;
  }
  return out;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  os << "thread\tid\tparent\tgroup\tlayer\tname\tstart_ns\tend_ns\n";
  for (const auto& buffer : buffers_) {
    for (const Span& s : buffer->spans()) {
      os << buffer->thread() << '\t' << s.id << '\t' << s.parent << '\t'
         << s.group << '\t' << LayerName(s.layer) << '\t' << s.name << '\t'
         << s.start_ns << '\t' << s.end_ns << '\n';
    }
  }
  return static_cast<bool>(os);
}

}  // namespace perfbench
