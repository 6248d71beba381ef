// In-memory span recording for the benchmark's traced runs.
//
// Spans are recorded only at the benchmark's own boundaries around calls
// into the program (the Policy and durability-hook decorators, the
// WriteOp closures and ModificationDriver, client calls into the
// ViewServer), never inside the program. Each recording thread owns one
// pre-sized SpanBuffer; nothing is shared while the run is timed. After
// the run the spans are written out and analysed: self time per layer
// (a span's duration minus what its child spans cover) and a check that
// every child span lies inside its parent.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// The program's modules that spans are attributed to.
enum class Layer : uint8_t { kServe, kStorage, kIvm, kCore, kCkpt, kSim, kTpc };
inline constexpr size_t kNumLayers = 7;
const char* LayerName(Layer layer);

struct Span {
  uint64_t id = 0;
  /// 0 for a root span.
  uint64_t parent = 0;
  /// Engine step or server maintenance cycle the span belongs to.
  uint64_t group = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  const char* name = "";
  Layer layer = Layer::kServe;
};

class SpanBuffer {
 public:
  /// `expected` spans are reserved up front so recording rarely
  /// allocates; more are kept, not dropped.
  SpanBuffer(uint32_t thread, size_t expected);

  /// Reserves an id for a span whose children end before it does.
  uint64_t NextId() { return (uint64_t{thread_} + 1) << 40 | ++seq_; }

  /// Appends a finished span; `id` 0 allocates a fresh one.
  uint64_t Add(const char* name, Layer layer, int64_t start_ns,
               int64_t end_ns, uint64_t parent = 0, uint64_t group = 0,
               uint64_t id = 0);

  const std::vector<Span>& spans() const { return spans_; }
  uint32_t thread() const { return thread_; }

 private:
  uint32_t thread_;
  uint64_t seq_ = 0;
  std::vector<Span> spans_;
};

struct TraceAnalysis {
  std::array<double, kNumLayers> self_ms{};
  size_t spans = 0;
  /// Child spans not contained in their parent's interval.
  size_t fit_violations = 0;
  /// Child spans whose parent id was never recorded.
  size_t orphans = 0;
};

/// Owns the per-thread buffers of one traced pass. Disabled tracers hand
/// out null buffers, and every recording site checks for null.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Setup-only: a buffer for one recording thread, or null if disabled.
  SpanBuffer* NewBuffer(size_t expected);

  /// After the run (every recording thread joined).
  TraceAnalysis Analyze() const;

  /// Writes one tab-separated line per span: thread, id, parent, group,
  /// layer, name, start_ns, end_ns. Returns false on an I/O error.
  bool WriteTsv(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
