// What every workload shares: its configuration, the result of one pass,
// the seeds derived from the command line, and the decorators through
// which the benchmark times the program's layers from outside.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/policy.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Scratch directory inside the checkout (durability directories).
  std::string workdir;
};

/// Every random stream of a run, derived from the one --seed argument.
struct Seeds {
  uint64_t tpc_gen;
  uint64_t updater;
  uint64_t mix;
  uint64_t arrivals;
  explicit Seeds(uint64_t seed);
};

/// One timed pass of a workload. `e2e` holds every end-to-end metric,
/// `layer` the per-layer metrics a traced pass adds.
struct PassResult {
  bool correct = true;
  std::string failure;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  /// Human-readable lines: each workload's own metric names (fresh_p50_ms,
  /// engine_mods_per_s, ...) with their sample counts.
  std::vector<std::string> report;

  void Fail(const std::string& why) {
    if (correct) failure = why;
    correct = false;
  }
};

/// State shared by the benchmark's decorators and closures that run on
/// the program's maintenance thread (server) or engine thread (runner).
/// Confined to that thread while the pass runs; read after it joins.
struct MaintenanceProbe {
  /// Null in an untraced pass: then nothing below is recorded.
  SpanBuffer* spans = nullptr;
  /// Current engine-step span (0 on the server, whose cycles have no
  /// span visible from outside).
  uint64_t parent = 0;
  /// Current engine step, or server maintenance cycle (1-based: the
  /// cycle's Act closes it).
  uint64_t group = 1;
  /// Time inside the current engine step's child spans.
  int64_t child_ns = 0;
  std::vector<double> apply_us;
  std::vector<double> act_us;

  void Record(const char* name, Layer layer, int64_t start_ns,
              int64_t end_ns) {
    spans->Add(name, layer, start_ns, end_ns, parent, group);
    child_ns += end_ns - start_ns;
  }
};

/// Policy decorator: times Act and accounts the paper objective, the
/// modelled cost of all maintenance work. Work the program does outside
/// Act (a ViewServer flush) shows as pending that vanished between two
/// steps and is charged when the next step -- or Finish -- sees it.
class TimedPolicy final : public abivm::Policy {
 public:
  TimedPolicy(std::unique_ptr<abivm::Policy> inner, MaintenanceProbe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  void Reset(const abivm::CostModel& model, double budget) override;
  abivm::StateVec Act(abivm::TimeStep t, const abivm::StateVec& pre_state,
                      const abivm::StateVec& arrivals_now) override;
  std::string name() const override { return inner_->name(); }

  /// Charges work done since the last Act, given the pending vector now
  /// (after the program stopped).
  void Finish(const abivm::StateVec& pending_now) {
    ChargeRefreshed(pending_now);
  }

  double model_cost() const { return model_cost_; }

 private:
  void ChargeRefreshed(const abivm::StateVec& pending_now);

  std::unique_ptr<abivm::Policy> inner_;
  MaintenanceProbe* probe_;
  const abivm::CostModel* model_ = nullptr;
  abivm::StateVec post_;
  double model_cost_ = 0.0;
};

PassResult RunServeFreshLarge(const RunConfig& config, Tracer& tracer);
PassResult RunServeIngestSmall(const RunConfig& config, Tracer& tracer);
PassResult RunEngineDurable(const RunConfig& config, Tracer& tracer);

/// Shared reporting helpers.
std::string FormatLine(const std::string& name, double value,
                       const std::string& unit, size_t samples);
/// One report line listing a per-round (or per-run) value, in order.
std::string FormatRounds(const std::string& name,
                         const std::vector<double>& values);
void AddLayerSelfTimes(const Tracer& tracer, PassResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
