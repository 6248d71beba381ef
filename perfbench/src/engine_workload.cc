// engine_durable: RunOnEngine at sf=0.02 with ReplanningPolicy (A*)
// over seeded Poisson({2,1,0,0}) arrivals, the crash_recovery example's
// cost model at C=15, and ckpt::DurabilityManager with its default
// options (checkpoint every 8 steps, incremental deltas, policy
// snapshots, WAL trim) in a fresh directory. The only workload that
// exercises ckpt and the planner.
//
// Each repetition is one run of kHorizon steps on a fresh set-up;
// repetitions continue until the run's measured engine time reaches
// --seconds.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/manager.h"
#include "ckpt/recovery.h"
#include "common/random.h"
#include "core/replan.h"
#include "cost/cost_function.h"
#include "lag_matcher.h"
#include "sim/engine_runner.h"
#include "tpc/arrivals_gen.h"
#include "tpc/tpc_gen.h"
#include "tpc/update_stream.h"
#include "tpc/views.h"
#include "workload.h"

namespace perfbench {
namespace {

using abivm::Status;

constexpr double kBudget = 15.0;

/// The crash_recovery example's cost model.
abivm::CostModel CrashRecoveryModel() {
  std::vector<abivm::CostFunctionPtr> fns = {
      std::make_shared<abivm::LinearCost>(0.3, 0.5),
      std::make_shared<abivm::LinearCost>(0.2, 6.0),
      std::make_shared<abivm::LinearCost>(0.1, 0.1),
      std::make_shared<abivm::LinearCost>(0.1, 0.1)};
  return abivm::CostModel(std::move(fns));
}

/// Durability-hook decorator around ckpt::DurabilityManager. Untraced it
/// only stamps the end of each step (step latency) and each committed
/// batch's watermarks (visibility for the lag matcher); traced it also
/// times every hook and records the step's spans: the batch that ran
/// before a commit hook is the gap since the previous hook returned.
class TimedDurability final : public abivm::EngineDurabilityHooks {
 public:
  TimedDurability(abivm::ckpt::DurabilityManager* inner,
                  MaintenanceProbe* probe,
                  const abivm::ViewMaintainer* maintainer,
                  PublishLog* publishes)
      : inner_(inner),
        probe_(probe),
        maintainer_(maintainer),
        publishes_(publishes),
        positions_(maintainer->num_tables()) {}

  /// Call right before RunOnEngine: step 0 starts now.
  void BeginRun() {
    step_start_ = NowNs();
    last_hook_end_ = step_start_;
    probe_->group = 0;
    probe_->child_ns = 0;
    if (probe_->spans != nullptr) probe_->parent = probe_->spans->NextId();
  }

  Status OnStepPlanned(const abivm::EngineStepRecord& planned,
                       bool forced) override {
    const int64_t start = NowNs();
    const Status status = inner_->OnStepPlanned(planned, forced);
    if (probe_->spans != nullptr) {
      const int64_t end = NowNs();
      probe_->Record("ckpt.step_planned", Layer::kCkpt, start, end);
      planned_us.push_back(static_cast<double>(end - start) / 1e3);
      last_hook_end_ = end;
    }
    return status;
  }

  Status OnBatchCommitted(abivm::TimeStep t, size_t table, size_t k,
                          const abivm::BatchResult& result) override {
    const int64_t committed = NowNs();
    for (size_t i = 0; i < positions_.size(); ++i) {
      positions_[i] = maintainer_->watermark_position(i);
    }
    publishes_->Stamp(committed, positions_.data());
    if (probe_->spans == nullptr) {
      return inner_->OnBatchCommitted(t, table, k, result);
    }
    probe_->Record("ivm.batch", Layer::kIvm, last_hook_end_, committed);
    const int64_t start = NowNs();
    const Status status = inner_->OnBatchCommitted(t, table, k, result);
    const int64_t end = NowNs();
    probe_->Record("ckpt.batch_committed", Layer::kCkpt, start, end);
    committed_us.push_back(static_cast<double>(end - start) / 1e3);
    last_hook_end_ = end;
    return status;
  }

  Status OnStepEnd(const abivm::EngineStepRecord& record) override {
    const uint64_t checkpoints = inner_->checkpoints_published();
    const int64_t start = NowNs();
    const Status status = inner_->OnStepEnd(record);
    const int64_t end = NowNs();
    step_ms.push_back(NsToMs(end - step_start_));
    if (probe_->spans != nullptr) {
      probe_->Record("ckpt.step_end", Layer::kCkpt, start, end);
      step_end_us.push_back(static_cast<double>(end - start) / 1e3);
      if (inner_->checkpoints_published() > checkpoints) {
        checkpoint_ms.push_back(NsToMs(end - start));
      }
      probe_->spans->Add("sim.step", Layer::kSim, step_start_, end, 0,
                         probe_->group, probe_->parent);
      step_other_ms.push_back(NsToMs(end - step_start_ - probe_->child_ns));
      probe_->parent = probe_->spans->NextId();
    }
    step_start_ = end;
    last_hook_end_ = end;
    probe_->group = static_cast<uint64_t>(record.t) + 1;
    probe_->child_ns = 0;
    return status;
  }

  std::vector<double> step_ms;
  std::vector<double> planned_us;
  std::vector<double> committed_us;
  std::vector<double> step_end_us;
  std::vector<double> checkpoint_ms;
  std::vector<double> step_other_ms;

 private:
  abivm::ckpt::DurabilityManager* inner_;
  MaintenanceProbe* probe_;
  const abivm::ViewMaintainer* maintainer_;
  PublishLog* publishes_;
  std::vector<size_t> positions_;
  int64_t step_start_ = 0;
  int64_t last_hook_end_ = 0;
};

template <typename T>
void Append(std::vector<T>& to, const std::vector<T>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

}  // namespace

PassResult RunEngineDurable(const RunConfig& config, Tracer& tracer) {
  constexpr double kScaleFactor = 0.02;
  constexpr abivm::TimeStep kHorizon = 2000;
  constexpr size_t kMaxReps = 256;
  const Seeds seeds(config.seed);
  abivm::Rng arrivals_rng(seeds.arrivals);
  abivm::Rng updater_seeds(seeds.updater);
  const abivm::CostModel model = CrashRecoveryModel();
  PassResult r;
  abivm::obs::MetricRegistry metrics;

  SpanBuffer* setup_spans = tracer.NewBuffer(4 * kMaxReps);
  // Per-run summaries; the end-to-end timings are their better quartile
  // (LowQuartile / HighQuartile), set-up and memory their median.
  std::vector<double> setup_s;
  std::vector<double> gen_s;
  std::vector<double> run_mods_per_s;
  std::vector<double> run_steps_per_s;
  std::vector<double> run_step_p50_ms;
  std::vector<double> run_step_p99_ms;
  std::vector<double> run_lag_p50_ms;
  std::vector<double> run_lag_p99_ms;
  std::vector<double> run_rss_mb;
  std::vector<double> apply_us;
  std::vector<double> act_us;
  std::vector<double> planned_us;
  std::vector<double> committed_us;
  std::vector<double> step_end_us;
  std::vector<double> checkpoint_ms;
  std::vector<double> step_other_ms;
  double engine_s = 0.0;
  double cost = 0.0;
  uint64_t mods = 0;
  uint64_t wal_records = 0;
  uint64_t plans = 0;
  uint64_t nodes = 0;
  double slots_per_live_row = 0.0;
  double delta_log_len = 0.0;

  for (size_t rep = 0; engine_s < config.seconds && rep < kMaxReps; ++rep) {
    const abivm::ArrivalSequence arrivals =
        abivm::MakePoissonArrivals({2, 1, 0, 0}, kHorizon, arrivals_rng);
    size_t total_mods = 0;
    for (size_t i = 0; i < arrivals.n(); ++i) total_mods += arrivals.Total(i);
    const std::string dir =
        config.workdir + "/engine_durable-rep" + std::to_string(rep);
    std::filesystem::remove_all(dir);
    BeginRoundFootprint();

    // Set-up: generation, indexes, initial view, seq-0 checkpoint.
    const int64_t t0 = NowNs();
    abivm::Database db;
    abivm::TpcGenOptions gen;
    gen.scale_factor = kScaleFactor;
    gen.seed = seeds.tpc_gen;
    abivm::GenerateTpcDatabase(&db, gen);
    const int64_t t1 = NowNs();
    abivm::CreatePaperIndexes(&db);
    const int64_t t2 = NowNs();
    abivm::ViewMaintainer maintainer(&db, abivm::MakePaperMinView());
    const int64_t t3 = NowNs();
    abivm::TpcUpdater updater(&db, updater_seeds.Next());
    MaintenanceProbe probe;
    probe.spans = tracer.NewBuffer(4 * total_mods + 8 * kHorizon + 64);
    auto replan = std::make_unique<abivm::ReplanningPolicy>();
    abivm::ReplanningPolicy* planner = replan.get();
    TimedPolicy policy(std::move(replan), &probe);
    abivm::ckpt::DurabilityOptions durability;
    durability.save_policy = [planner] { return planner->SaveState(); };
    auto mgr = abivm::ckpt::DurabilityManager::Start(
        dir, &db, &maintainer, [&updater] { return updater.SaveState(); },
        durability, &metrics);
    const int64_t t4 = NowNs();
    if (!mgr.ok()) {
      r.Fail("DurabilityManager::Start: " + mgr.status().ToString());
      break;
    }
    setup_s.push_back(static_cast<double>(t4 - t0) / 1e9);
    gen_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    if (setup_spans != nullptr) {
      setup_spans->Add("tpc.generate", Layer::kTpc, t0, t1);
      setup_spans->Add("tpc.create_indexes", Layer::kTpc, t1, t2);
      setup_spans->Add("ivm.initial_view", Layer::kIvm, t2, t3);
      setup_spans->Add("ckpt.start", Layer::kCkpt, t3, t4);
    }

    const auto& tables = maintainer.binding().def().tables;
    IngestLog ingest(total_mods);
    PublishLog publishes(tables.size(), total_mods + 1);
    size_t op = 0;
    abivm::ModificationDriver driver = [&](size_t table) {
      const int64_t start = NowNs();
      updater.ApplyPaperModification(tables[table]);
      if (op < total_mods) {  // more calls than scheduled fail the gate
        ingest.SetDue(op, start);
        ingest.SetApplied(op, table,
                          db.table(tables[table]).delta_log().size());
      }
      ++op;
      if (probe.spans != nullptr) {
        const int64_t end = NowNs();
        probe.Record("storage.apply", Layer::kStorage, start, end);
        probe.apply_us.push_back(static_cast<double>(end - start) / 1e3);
      }
    };
    TimedDurability hooks(mgr.value().get(), &probe, &maintainer, &publishes);
    abivm::EngineRunnerOptions options;
    options.durability = &hooks;
    options.metrics = &metrics;
    options.record_steps = false;
    hooks.BeginRun();
    const int64_t run_start = NowNs();
    const abivm::EngineTrace trace = abivm::RunOnEngine(
        maintainer, arrivals, model, kBudget, policy, driver, options);
    const double run_s = static_cast<double>(NowNs() - run_start) / 1e9;
    engine_s += run_s;
    wal_records += (*mgr)->wal_records_appended();
    mgr.value().reset();  // closes the WAL before recovery reads the directory
    run_rss_mb.push_back(PeakRssMb());

    // Correctness gate, outside the timed region.
    if (trace.aborted) r.Fail("engine run aborted: " + trace.abort_reason);
    if (!trace.ended_consistent || !maintainer.IsConsistent()) {
      r.Fail("engine run did not end consistent");
    }
    abivm::ReplanningPolicy recovery_policy;
    auto recovered = abivm::ckpt::RecoverFromDir(
        dir, abivm::MakePaperMinView(), model, kBudget, &recovery_policy);
    if (!recovered.ok()) {
      r.Fail("RecoverFromDir: " + recovered.status().ToString());
    } else if (!recovered.value().maintainer->state().SameContents(
                   maintainer.state())) {
      r.Fail("recovered view != final view");
    }
    const LagSummary lag =
        MatchVisibleLag(ingest, std::min(op, total_mods), publishes);
    if (op != total_mods || lag.applied != total_mods) {
      r.Fail("ModificationDriver applied " + std::to_string(op) + " of " +
             std::to_string(total_mods) + " scheduled modifications");
    }
    if (!lag.consistent || publishes.dropped() > 0) {
      r.Fail("batch/modification records inconsistent");
    }
    if (lag.unmatched > 0) {
      r.Fail(std::to_string(lag.unmatched) + " modifications never committed");
    }
    std::filesystem::remove_all(dir);

    cost += trace.total_model_cost;
    mods += total_mods;
    plans += planner->plans_computed();
    nodes += planner->planner_nodes_expanded();
    run_mods_per_s.push_back(static_cast<double>(total_mods) / run_s);
    run_steps_per_s.push_back(static_cast<double>(hooks.step_ms.size()) /
                              run_s);
    run_step_p50_ms.push_back(Quantile(hooks.step_ms, 0.5));
    run_step_p99_ms.push_back(Quantile(hooks.step_ms, 0.99));
    run_lag_p50_ms.push_back(Quantile(lag.lags_ms, 0.5));
    run_lag_p99_ms.push_back(Quantile(lag.lags_ms, 0.99));
    Append(apply_us, probe.apply_us);
    Append(act_us, probe.act_us);
    Append(planned_us, hooks.planned_us);
    Append(committed_us, hooks.committed_us);
    Append(step_end_us, hooks.step_end_us);
    Append(checkpoint_ms, hooks.checkpoint_ms);
    Append(step_other_ms, hooks.step_other_ms);
    const abivm::Table& partsupp = db.table(abivm::kPartSupp);
    slots_per_live_row = static_cast<double>(partsupp.physical_row_count()) /
                         static_cast<double>(partsupp.live_row_count());
    delta_log_len = 0.0;
    for (const auto& name : tables) {
      const auto& log = db.table(name).delta_log();
      delta_log_len += static_cast<double>(log.size() - log.first_retained());
    }
    r.attempted += total_mods + 1;
    r.failed += trace.failures + (trace.aborted ? 1 : 0);
    if (!r.correct) break;
  }

  const size_t runs = setup_s.size();
  r.e2e["setup_s"] = Median(setup_s);
  r.e2e["op_p50_ms"] = LowQuartile(run_step_p50_ms);
  r.e2e["op_p99_ms"] = LowQuartile(run_step_p99_ms);
  r.e2e["op_per_s"] = HighQuartile(run_steps_per_s);
  r.e2e["ingest_ops_per_s"] = HighQuartile(run_mods_per_s);
  r.e2e["visible_lag_p50_ms"] = LowQuartile(run_lag_p50_ms);
  r.e2e["visible_lag_p99_ms"] = LowQuartile(run_lag_p99_ms);
  r.e2e["maint_cost_per_mod"] = mods > 0 ? cost / mods : 0.0;
  r.e2e["peak_rss_mb"] = Median(run_rss_mb);

  // Timings are the better quartile over runs of kHorizon steps; n
  // counts the runs.
  auto& rep = r.report;
  rep.push_back(FormatLine("setup_s", r.e2e["setup_s"], "s", runs));
  rep.push_back(FormatLine("engine_mods_per_s", r.e2e["ingest_ops_per_s"],
                           "1/s", runs));
  rep.push_back(FormatLine("engine_step_p50_ms", r.e2e["op_p50_ms"], "ms",
                           runs));
  rep.push_back(FormatLine("engine_step_p99_ms", r.e2e["op_p99_ms"], "ms",
                           runs));
  rep.push_back(FormatLine("visible_lag_p50_ms", r.e2e["visible_lag_p50_ms"],
                           "ms", runs));
  rep.push_back(FormatLine("visible_lag_p99_ms", r.e2e["visible_lag_p99_ms"],
                           "ms", runs));
  rep.push_back(FormatLine("maint_cost_model", cost, "model", mods));
  rep.push_back(FormatLine("error_ratio",
                           static_cast<double>(r.failed) /
                               static_cast<double>(r.attempted),
                           "fraction", r.attempted));
  rep.push_back(FormatLine("peak_rss_mb", r.e2e["peak_rss_mb"], "MB", runs));
  rep.push_back(FormatRounds("engine_mods_per_s", run_mods_per_s));

  if (tracer.enabled()) {
    auto& layer = r.layer;
    const auto snap = metrics.Snapshot();
    auto counter = [&](const char* name) {
      const auto it = snap.counters.find(name);
      return it == snap.counters.end() ? 0.0
                                       : static_cast<double>(it->second);
    };
    const auto batch = snap.latencies.find("ivm.batch_ms");
    if (batch != snap.latencies.end()) {
      layer["ivm.batch_ms.count"] = static_cast<double>(batch->second.count);
      layer["ivm.batch_ms.sum"] = batch->second.sum;
      layer["ivm.batch_ms.p99"] = batch->second.p99;
    }
    for (const auto& [name, timer] : snap.timers) {
      if (name.rfind("ivm.op.", 0) == 0) {
        layer[name + ".total_ms"] = timer.total_ms;
      }
    }
    layer["storage.apply_us.p50"] = Median(apply_us);
    layer["storage.apply_busy_share"] = Sum(apply_us) / 1e6 / engine_s;
    layer["storage.partsupp.slots_per_live_row"] = slots_per_live_row;
    layer["storage.delta_log_len"] = delta_log_len;
    layer["core.act_us.p50"] = Quantile(act_us, 0.5);
    layer["core.act_us.p99"] = Quantile(act_us, 0.99);
    layer["core.act_ms.sum"] = Sum(act_us) / 1e3;
    layer["core.plans_computed"] = static_cast<double>(plans);
    layer["core.astar_nodes_expanded"] = static_cast<double>(nodes);
    layer["ckpt.step_planned_us.p50"] = Quantile(planned_us, 0.5);
    layer["ckpt.step_planned_us.p99"] = Quantile(planned_us, 0.99);
    layer["ckpt.batch_committed_us.p50"] = Quantile(committed_us, 0.5);
    layer["ckpt.step_end_us.p50"] = Quantile(step_end_us, 0.5);
    layer["ckpt.step_end_us.p99"] = Quantile(step_end_us, 0.99);
    layer["ckpt.checkpoint_ms.p50"] = Quantile(checkpoint_ms, 0.5);
    layer["ckpt.busy_share"] =
        (Sum(planned_us) + Sum(committed_us) + Sum(step_end_us)) / 1e6 /
        engine_s;
    layer["ckpt.wal_records_per_mod"] =
        static_cast<double>(wal_records) / static_cast<double>(mods);
    layer["ckpt.bytes_per_mod"] =
        counter("ckpt.bytes_written") / static_cast<double>(mods);
    layer["ckpt.checkpoints"] = counter("ckpt.checkpoints");
    layer["ckpt.deltas"] = counter("ckpt.deltas_published");
    layer["sim.step_other_ms"] = Quantile(step_other_ms, 0.5);
    layer["tpc.gen_s"] = Median(gen_s);
  }
  return r;
}

}  // namespace perfbench
