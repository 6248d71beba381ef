// Unit test of the benchmark's own measurement code: the visible-lag
// matcher and the span analysis. Exits 0 when every check holds; run.py
// runs it after every build, before any workload.

#include <cmath>
#include <cstdio>
#include <vector>

#include "lag_matcher.h"
#include "trace.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

constexpr int64_t kMs = 1'000'000;

// Two tables. Publications at 10 ms and 20 ms; the one at 15 ms covers
// nothing new and is not stored; the 20 ms one is a flush. Ops:
//   op0 t0 pos1 due 1  -> visible at 10 (lag 9)
//   op1 t0 pos2 due 2  -> visible at 10 (lag 8)
//   op2 t0 pos3 due 12 -> visible only at the flush (lag 8)
//   op3 t1 pos1 due 15 -> visible only at the flush (lag 5)
//   op4 t0 pos6 due 21 -> applied after the flush, never visible
//   op5 never applied (e.g. rejected)  -> ignored
void TestLagMatcher() {
  PublishLog pubs(2, 3);
  const size_t p1[] = {2, 0};
  const size_t p2[] = {5, 1};
  pubs.Stamp(10 * kMs, p1);
  pubs.Stamp(15 * kMs, p1);
  pubs.Stamp(20 * kMs, p2);
  Expect(pubs.size() == 2, "repeat publication is not stored");

  IngestLog ingest(6);
  const int64_t due[] = {1, 2, 12, 15, 21, 22};
  for (size_t op = 0; op < 6; ++op) ingest.SetDue(op, due[op] * kMs);
  ingest.SetApplied(0, 0, 1);
  ingest.SetApplied(1, 0, 2);
  ingest.SetApplied(2, 0, 3);
  ingest.SetApplied(3, 1, 1);
  ingest.SetApplied(4, 0, 6);

  const LagSummary lag = MatchVisibleLag(ingest, 6, pubs);
  Expect(lag.consistent, "consistent records");
  Expect(lag.applied == 5, "five applied ops");
  Expect(lag.unmatched == 1, "op published after no flush is unmatched");
  const double want[] = {9, 8, 8, 5};
  Expect(lag.lags_ms.size() == 4, "four matched lags");
  for (size_t i = 0; i < lag.lags_ms.size() && i < 4; ++i) {
    Expect(Near(lag.lags_ms[i], want[i]), "lag value");
  }

  // Positions going backwards are reported as inconsistent.
  PublishLog bad(1, 2);
  const size_t b1[] = {3};
  const size_t b2[] = {2};
  bad.Stamp(1 * kMs, b1);
  bad.Stamp(2 * kMs, b2);
  IngestLog one(1);
  one.SetApplied(0, 0, 1);
  Expect(!MatchVisibleLag(one, 1, bad).consistent, "backwards positions");

  // Capacity overflow is counted, never written past the end.
  PublishLog small(1, 1);
  const size_t s1[] = {1};
  const size_t s2[] = {2};
  small.Stamp(1, s1);
  small.Stamp(2, s2);
  Expect(small.size() == 1 && small.dropped() == 1, "overflow counted");
}

// A step [0, 10] ms with children [1, 3] and [2, 5] (overlapping) and
// [6, 7]: covered 5 ms, so the step's self time is 5 ms. A child that
// leaves its parent is a fit violation.
void TestTraceAnalysis() {
  Tracer tracer(true);
  SpanBuffer* buf = tracer.NewBuffer(16);
  const uint64_t step = buf->NextId();
  buf->Add("storage.apply", Layer::kStorage, 1 * kMs, 3 * kMs, step, 1);
  buf->Add("core.act", Layer::kCore, 2 * kMs, 5 * kMs, step, 1);
  buf->Add("ckpt.step_end", Layer::kCkpt, 6 * kMs, 7 * kMs, step, 1);
  buf->Add("sim.step", Layer::kSim, 0, 10 * kMs, 0, 1, step);
  TraceAnalysis a = tracer.Analyze();
  Expect(a.spans == 4, "span count");
  Expect(Near(a.self_ms[static_cast<size_t>(Layer::kSim)], 5.0),
         "step self time");
  Expect(Near(a.self_ms[static_cast<size_t>(Layer::kCore)], 3.0),
         "leaf self time");
  Expect(a.fit_violations == 0 && a.orphans == 0, "children fit");

  buf->Add("ckpt.step_end", Layer::kCkpt, 9 * kMs, 11 * kMs, step, 1);
  buf->Add("core.act", Layer::kCore, 1, 2, /*parent=*/12345, 1);
  a = tracer.Analyze();
  Expect(a.fit_violations == 1, "child past its parent's end");
  Expect(a.orphans == 1, "child of an unrecorded parent");

  Tracer off(false);
  Expect(off.NewBuffer(8) == nullptr, "disabled tracer hands out null");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestLagMatcher();
  perfbench::TestTraceAnalysis();
  if (perfbench::failures == 0) std::puts("perfbench selftest: ok");
  return perfbench::failures == 0 ? 0 : 1;
}
