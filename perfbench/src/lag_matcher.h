// Ingest-to-visible lag, measured from outside the program.
//
// While a run is timed, the writer side only stores plain records into
// arrays sized before the run starts:
//   * IngestLog: per op, when it was due (open loop) or called (closed
//     loop), and -- stamped by the benchmark's own WriteOp closure or
//     ModificationDriver as the op is applied -- which view base table
//     it touched and that table's delta-log size right after the append.
//   * PublishLog: per publication (ViewServer publish hook, or a
//     committed engine batch), its time and the per-table watermark
//     positions it covers.
// Matching happens after the run: an op is visible at the first
// publication whose position for the op's table reaches the op's log
// position. Ops that no publication covers are counted, not guessed.

#ifndef PERFBENCH_LAG_MATCHER_H_
#define PERFBENCH_LAG_MATCHER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class PublishLog {
 public:
  PublishLog(size_t num_tables, size_t capacity);

  /// Writer side (one thread at a time): stamps one publication covering
  /// `positions[i]` delta-log entries of view table i. A publication that
  /// covers nothing new is not stored (it can never be the first to make
  /// an op visible), so `capacity` = ops + 1 always suffices. Past
  /// capacity the stamp is dropped and counted; a run with drops fails
  /// its check.
  void Stamp(int64_t time_ns, const size_t* positions);

  size_t size() const { return size_; }
  size_t dropped() const { return dropped_; }
  size_t num_tables() const { return num_tables_; }
  int64_t time_ns(size_t k) const { return times_[k]; }
  size_t position(size_t k, size_t table) const {
    return positions_[k * num_tables_ + table];
  }

 private:
  size_t num_tables_;
  size_t size_ = 0;
  size_t dropped_ = 0;
  std::vector<int64_t> times_;
  std::vector<size_t> positions_;
};

class IngestLog {
 public:
  explicit IngestLog(size_t capacity);

  /// Producer side: op `op` was due (open loop) or called (closed loop).
  void SetDue(size_t op, int64_t due_ns) { due_ns_[op] = due_ns; }

  /// Apply side: op `op` appended the entry that made view table
  /// `table`'s delta log `position` entries long.
  void SetApplied(size_t op, size_t table, size_t position) {
    table_[op] = static_cast<uint32_t>(table);
    position_[op] = position;
  }

  int64_t due_ns(size_t op) const { return due_ns_[op]; }
  bool applied(size_t op) const { return position_[op] != kNotApplied; }
  size_t table(size_t op) const { return table_[op]; }
  size_t position(size_t op) const { return position_[op]; }

 private:
  static constexpr size_t kNotApplied = static_cast<size_t>(-1);
  std::vector<int64_t> due_ns_;
  std::vector<uint32_t> table_;
  std::vector<size_t> position_;
};

struct LagSummary {
  /// One lag per op that a publication covered, in milliseconds.
  std::vector<double> lags_ms;
  /// Ops that were applied.
  size_t applied = 0;
  /// Applied ops that no publication covered.
  size_t unmatched = 0;
  /// False when some table's published positions went backwards or a
  /// lag came out negative: the records themselves are inconsistent.
  bool consistent = true;
};

/// Matches ops [0, num_ops) of `ingest` against `publishes`.
LagSummary MatchVisibleLag(const IngestLog& ingest, size_t num_ops,
                           const PublishLog& publishes);

}  // namespace perfbench

#endif  // PERFBENCH_LAG_MATCHER_H_
