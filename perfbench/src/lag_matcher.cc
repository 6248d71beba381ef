#include "lag_matcher.h"

#include <algorithm>

#include "stats.h"

namespace perfbench {

PublishLog::PublishLog(size_t num_tables, size_t capacity)
    : num_tables_(num_tables),
      times_(capacity),
      positions_(capacity * num_tables) {}

void PublishLog::Stamp(int64_t time_ns, const size_t* positions) {
  if (size_ > 0 &&
      std::equal(positions, positions + num_tables_,
                 positions_.begin() +
                     static_cast<ptrdiff_t>((size_ - 1) * num_tables_))) {
    return;
  }
  if (size_ == times_.size()) {
    ++dropped_;
    return;
  }
  times_[size_] = time_ns;
  std::copy(positions, positions + num_tables_,
            positions_.begin() + static_cast<ptrdiff_t>(size_ * num_tables_));
  ++size_;
}

IngestLog::IngestLog(size_t capacity)
    : due_ns_(capacity, 0),
      table_(capacity, 0),
      position_(capacity, kNotApplied) {}

LagSummary MatchVisibleLag(const IngestLog& ingest, size_t num_ops,
                           const PublishLog& publishes) {
  LagSummary out;
  const size_t n = publishes.size();
  for (size_t table = 0; table < publishes.num_tables(); ++table) {
    for (size_t k = 1; k < n; ++k) {
      if (publishes.position(k, table) < publishes.position(k - 1, table)) {
        out.consistent = false;
      }
    }
  }
  out.lags_ms.reserve(num_ops);
  for (size_t op = 0; op < num_ops; ++op) {
    if (!ingest.applied(op)) continue;
    ++out.applied;
    const size_t table = ingest.table(op);
    const size_t position = ingest.position(op);
    if (table >= publishes.num_tables()) {
      out.consistent = false;
      continue;
    }
    // First publication whose watermark reaches the op's log entry.
    size_t lo = 0;
    size_t hi = n;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (publishes.position(mid, table) >= position) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    if (lo == n) {
      ++out.unmatched;
      continue;
    }
    const int64_t lag_ns = publishes.time_ns(lo) - ingest.due_ns(op);
    if (lag_ns < 0) out.consistent = false;
    out.lags_ms.push_back(NsToMs(lag_ns));
  }
  return out;
}

}  // namespace perfbench
