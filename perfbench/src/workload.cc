#include "workload.h"

#include <cstdio>

#include "common/random.h"

namespace perfbench {

Seeds::Seeds(uint64_t seed) {
  uint64_t state = seed;
  tpc_gen = abivm::SplitMix64(state);
  updater = abivm::SplitMix64(state);
  mix = abivm::SplitMix64(state);
  arrivals = abivm::SplitMix64(state);
}

void TimedPolicy::Reset(const abivm::CostModel& model, double budget) {
  model_ = &model;
  post_.clear();
  model_cost_ = 0.0;
  inner_->Reset(model, budget);
}

void TimedPolicy::ChargeRefreshed(const abivm::StateVec& pending_now) {
  if (post_.empty()) return;  // no step yet
  for (size_t i = 0; i < post_.size(); ++i) {
    if (post_[i] > pending_now[i]) {
      model_cost_ += model_->Cost(i, post_[i] - pending_now[i]);
    }
  }
  post_ = pending_now;
}

abivm::StateVec TimedPolicy::Act(abivm::TimeStep t,
                                 const abivm::StateVec& pre_state,
                                 const abivm::StateVec& arrivals_now) {
  // What was pending before this step's arrivals: anything the previous
  // step left that is gone now was processed outside Act.
  ChargeRefreshed(abivm::SubVec(pre_state, arrivals_now));
  const int64_t start = probe_->spans != nullptr ? NowNs() : 0;
  abivm::StateVec action = inner_->Act(t, pre_state, arrivals_now);
  if (probe_->spans != nullptr) {
    const int64_t end = NowNs();
    probe_->Record("core.act", Layer::kCore, start, end);
    probe_->act_us.push_back(static_cast<double>(end - start) / 1e3);
  }
  // On the server each Act closes one maintenance cycle.
  if (probe_->parent == 0) ++probe_->group;
  model_cost_ += model_->TotalCost(action);
  post_ = abivm::SubVec(pre_state, action);
  return action;
}

std::string FormatLine(const std::string& name, double value,
                       const std::string& unit, size_t samples) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "  %-28s %14.6g %-8s (n=%zu)",
                name.c_str(), value, unit.c_str(), samples);
  return buf;
}

std::string FormatRounds(const std::string& name,
                         const std::vector<double>& values) {
  std::string line = "  " + name + " by round:";
  char buf[32];
  for (double v : values) {
    std::snprintf(buf, sizeof(buf), " %.4g", v);
    line += buf;
  }
  return line;
}

void AddLayerSelfTimes(const Tracer& tracer, PassResult* result) {
  const TraceAnalysis analysis = tracer.Analyze();
  for (size_t l = 0; l < kNumLayers; ++l) {
    result->layer[std::string("trace.self_ms.") +
                  LayerName(static_cast<Layer>(l))] = analysis.self_ms[l];
  }
  result->layer["trace.spans"] = static_cast<double>(analysis.spans);
  if (analysis.fit_violations > 0 || analysis.orphans > 0) {
    result->Fail("trace: " + std::to_string(analysis.fit_violations) +
                 " child spans outside their parent, " +
                 std::to_string(analysis.orphans) + " orphans");
  }
}

}  // namespace perfbench
