// The two served workloads: one ViewServer maintaining the paper MIN
// view under OnlinePolicy with the micro_serve cost model, driven by at
// most three load threads (plus the server's maintenance thread).
//
//   serve_fresh_large  sf=0.1. Open-loop ingest at a fixed 2,000 ops/s
//                      with one stale read per slot, plus two closed-loop
//                      ReadFresh clients. Publication is O(|V|) and the
//                      view is large, so the snapshot path dominates.
//   serve_ingest_small sf=0.01. Rounds of a fixed op count pushed by one
//                      closed-loop producer (kBlock backpressure) with
//                      stale reads at a fixed rate; one closing ReadFresh
//                      marks the drain. Apply -> Act -> batch dominates.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/online.h"
#include "cost/cost_function.h"
#include "lag_matcher.h"
#include "serve/view_server.h"
#include "tpc/tpc_gen.h"
#include "tpc/update_stream.h"
#include "tpc/views.h"
#include "workload.h"

namespace perfbench {
namespace {

using abivm::CostModel;
using abivm::Database;
using abivm::Table;
using abivm::serve::SnapshotPtr;
using abivm::serve::ViewServer;

/// Share of ingested ops that update a supplier's nationkey; the rest
/// update a partsupp supplycost (the paper's update mix).
constexpr double kSupplierShare = 0.05;

/// The micro_serve bench's cost model: cheap indexed partsupp deltas,
/// expensive supplier deltas (they scan partsupp), near-free dimensions.
CostModel MicroServeModel() {
  std::vector<abivm::CostFunctionPtr> fns = {
      std::make_shared<abivm::LinearCost>(0.002, 0.01),
      std::make_shared<abivm::LinearCost>(0.01, 0.40),
      std::make_shared<abivm::LinearCost>(1e-6, 0.0),
      std::make_shared<abivm::LinearCost>(1e-6, 0.0)};
  return CostModel(std::move(fns));
}

/// What the WriteOp closures need, owned by the ServedSetup they run in.
struct ApplyContext {
  abivm::TpcUpdater* updater = nullptr;
  IngestLog* ingest = nullptr;
  MaintenanceProbe* probe = nullptr;
  const Table* partsupp = nullptr;
  const Table* supplier = nullptr;
  size_t partsupp_view_table = 0;
  size_t supplier_view_table = 0;
};

/// One paper modification as a WriteOp. Runs on the maintenance thread;
/// stamps the delta-log position it produced for the lag matcher.
abivm::serve::WriteOp MakeOp(ApplyContext* ctx, size_t op, bool supplier) {
  return [ctx, op, supplier](Database&) -> abivm::Status {
    MaintenanceProbe& probe = *ctx->probe;
    const int64_t start = probe.spans != nullptr ? NowNs() : 0;
    if (supplier) {
      ctx->updater->UpdateSupplierNationkey();
      ctx->ingest->SetApplied(op, ctx->supplier_view_table,
                              ctx->supplier->delta_log().size());
    } else {
      ctx->updater->UpdatePartSuppSupplycost();
      ctx->ingest->SetApplied(op, ctx->partsupp_view_table,
                              ctx->partsupp->delta_log().size());
    }
    if (probe.spans != nullptr) {
      const int64_t end = NowNs();
      probe.Record("storage.apply", Layer::kStorage, start, end);
      probe.apply_us.push_back(static_cast<double>(end - start) / 1e3);
    }
    return abivm::Status::Ok();
  };
}

/// A started server plus the records its run fills. The server is
/// declared last so it stops (and drops queued closures) first.
struct ServedSetup {
  MaintenanceProbe probe;
  std::unique_ptr<IngestLog> ingest;
  std::unique_ptr<PublishLog> publishes;
  std::unique_ptr<abivm::TpcUpdater> updater;
  ApplyContext ctx;
  TimedPolicy* policy = nullptr;
  double gen_s = 0.0;
  double setup_s = 0.0;
  std::unique_ptr<ViewServer> server;
};

/// Generation + indexes + initial view + Start, timed as setup_s.
std::unique_ptr<ServedSetup> SetUpServer(double scale_factor,
                                         const Seeds& seeds,
                                         abivm::obs::MetricRegistry* metrics,
                                         size_t max_ops,
                                         SpanBuffer* maintenance_spans,
                                         SpanBuffer* setup_spans) {
  auto s = std::make_unique<ServedSetup>();
  const int64_t t0 = NowNs();
  auto db = std::make_unique<Database>();
  abivm::TpcGenOptions gen;
  gen.scale_factor = scale_factor;
  gen.seed = seeds.tpc_gen;
  abivm::GenerateTpcDatabase(db.get(), gen);
  const int64_t t1 = NowNs();
  abivm::CreatePaperIndexes(db.get());
  const int64_t t2 = NowNs();
  s->server = std::make_unique<ViewServer>(
      std::move(db), abivm::serve::ServeOptions{}, metrics);
  s->probe.spans = maintenance_spans;
  auto policy = std::make_unique<TimedPolicy>(
      std::make_unique<abivm::OnlinePolicy>(), &s->probe);
  s->policy = policy.get();
  s->server->AddView(abivm::MakePaperMinView(), std::move(policy),
                     MicroServeModel());
  const int64_t t3 = NowNs();

  Database& sdb = s->server->db();
  s->updater = std::make_unique<abivm::TpcUpdater>(&sdb, seeds.updater);
  const auto& tables = s->server->view_maintainer(0).binding().def().tables;
  s->ingest = std::make_unique<IngestLog>(max_ops);
  s->publishes = std::make_unique<PublishLog>(tables.size(), max_ops + 1);
  s->ctx.updater = s->updater.get();
  s->ctx.ingest = s->ingest.get();
  s->ctx.probe = &s->probe;
  s->ctx.partsupp = &sdb.table(abivm::kPartSupp);
  s->ctx.supplier = &sdb.table(abivm::kSupplier);
  for (size_t i = 0; i < tables.size(); ++i) {
    if (tables[i] == abivm::kPartSupp) s->ctx.partsupp_view_table = i;
    if (tables[i] == abivm::kSupplier) s->ctx.supplier_view_table = i;
  }
  PublishLog* log = s->publishes.get();
  s->server->SetPublishHook(
      [log](size_t, const abivm::serve::ViewSnapshot& snapshot,
            const abivm::ViewMaintainer&) {
        log->Stamp(NowNs(), snapshot.positions.data());
      });
  s->server->Start();
  const int64_t t4 = NowNs();
  s->gen_s = static_cast<double>(t1 - t0) / 1e9;
  s->setup_s = static_cast<double>(t4 - t0) / 1e9;
  if (setup_spans != nullptr) {
    setup_spans->Add("tpc.generate", Layer::kTpc, t0, t1);
    setup_spans->Add("tpc.create_indexes", Layer::kTpc, t1, t2);
    setup_spans->Add("ivm.add_view", Layer::kIvm, t2, t3);
    setup_spans->Add("serve.start", Layer::kServe, t3, t4);
  }
  return s;
}

/// Stale read as a client does it: load the epoch, read the MIN.
/// Returns the epoch (0 on a null snapshot).
uint64_t StaleRead(const ViewServer& server) {
  const SnapshotPtr snap = server.ReadStale(0);
  if (snap == nullptr) return 0;
  const auto min = snap->state.ScalarMin();
  (void)min;
  return snap->epoch;
}

/// The correctness gate after the closing ReadFresh and Stop: the final
/// snapshot equals the recompute oracle at its watermarks, its stored
/// digest matches its content, and every applied op became visible.
void CheckServedRun(ServedSetup& s, size_t ops_issued, uint64_t accepted,
                    uint64_t closing_epoch, PassResult* result,
                    LagSummary* lag) {
  ViewServer& server = *s.server;
  const abivm::ViewMaintainer& m = server.view_maintainer(0);
  const SnapshotPtr final_snap = server.ReadStale(0);
  if (final_snap == nullptr || final_snap->epoch < closing_epoch) {
    result->Fail("final snapshot missing or older than the closing read");
    return;
  }
  if (!final_snap->state.SameContents(m.RecomputeAtWatermarks())) {
    result->Fail("final snapshot != recompute oracle at its watermarks");
  }
  if (abivm::serve::DigestViewState(final_snap->state) !=
      final_snap->digest) {
    result->Fail("final snapshot digest does not match its content");
  }
  for (size_t i = 0; i < m.num_tables(); ++i) {
    if (final_snap->positions[i] != m.watermark_position(i)) {
      result->Fail("final snapshot positions != maintainer watermarks");
    }
  }
  *lag = MatchVisibleLag(*s.ingest, ops_issued, *s.publishes);
  if (!lag->consistent) result->Fail("publish/ingest records inconsistent");
  if (s.publishes->dropped() > 0) result->Fail("publish log overflowed");
  if (lag->applied != accepted) {
    result->Fail("applied ops (" + std::to_string(lag->applied) +
                 ") != accepted ingests (" + std::to_string(accepted) + ")");
  }
  if (lag->unmatched > 0) {
    result->Fail(std::to_string(lag->unmatched) +
                 " applied ops never became visible");
  }
  const auto snap = server.metrics().Snapshot();
  if (snap.counters.at("serve.ingest_errors") != 0 ||
      snap.counters.at("serve.batch_failures") != 0) {
    result->Fail("server reported failed ops or batches");
  }
  s.policy->Finish(m.PendingVec());
}

/// Registry numbers and end-of-run storage shape shared by both served
/// workloads' traced passes.
void AddServeLayerMetrics(ServedSetup& s, abivm::obs::MetricRegistry& metrics,
                          PassResult* r) {
  const auto snap = metrics.Snapshot();
  auto counter = [&](const char* name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto& layer = r->layer;
  const auto flush = snap.latencies.find("serve.flush_ms");
  if (flush != snap.latencies.end()) {
    layer["serve.flush_ms.p50"] = flush->second.p50;
    layer["serve.flush_ms.p99"] = flush->second.p99;
  }
  layer["serve.publishes"] = counter("serve.publishes");
  layer["serve.cycles"] = counter("serve.cycles");
  layer["serve.flushes"] = counter("serve.flushes");
  layer["serve.budget_violations"] = counter("serve.budget_violations");
  const double flushes = counter("serve.flushes");
  layer["serve.fresh_per_flush"] =
      flushes > 0 ? counter("serve.fresh_served") / flushes : 0.0;
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
  // The final snapshot's publication cost, rebuilt on this thread: the
  // ViewState copy plus the digest the server computes per publication.
  const SnapshotPtr final_snap = s.server->ReadStale(0);
  std::vector<double> build_ms;
  for (int i = 0; i < 5; ++i) {
    const int64_t t0 = NowNs();
    abivm::ViewState copy = final_snap->state;
    const uint64_t digest = abivm::serve::DigestViewState(copy);
    build_ms.push_back(NsToMs(NowNs() - t0));
    if (digest != final_snap->digest) r->Fail("snapshot rebuild digest");
  }
  layer["serve.snapshot_build_ms"] = Median(build_ms);

  const Database& db = s.server->db();
  const Table& partsupp = db.table(abivm::kPartSupp);
  layer["storage.partsupp.slots_per_live_row"] =
      static_cast<double>(partsupp.physical_row_count()) /
      static_cast<double>(partsupp.live_row_count());
  size_t log_len = 0;
  for (const auto& name :
       s.server->view_maintainer(0).binding().def().tables) {
    const auto& log = db.table(name).delta_log();
    log_len += log.size() - log.first_retained();
  }
  layer["storage.delta_log_len"] = static_cast<double>(log_len);
}

void AddProbeLayerMetrics(const MaintenanceProbe& probe, double wall_s,
                          PassResult* r) {
  auto& layer = r->layer;
  layer["storage.apply_us.p50"] = Median(probe.apply_us);
  layer["storage.apply_busy_share"] = Sum(probe.apply_us) / 1e6 / wall_s;
  layer["core.act_us.p50"] = Quantile(probe.act_us, 0.5);
  layer["core.act_us.p99"] = Quantile(probe.act_us, 0.99);
  layer["core.act_ms.sum"] = Sum(probe.act_us) / 1e3;
}

}  // namespace

PassResult RunServeFreshLarge(const RunConfig& config, Tracer& tracer) {
  constexpr double kScaleFactor = 0.1;
  constexpr double kIngestRate = 2000.0;  // ops/s, open loop
  constexpr int kFreshClients = 2;
  // Mean of the exponential think time between one client's fresh
  // reads. With none, the two closed-loop clients phase-lock: either
  // both wait on one flush (fresh_per_flush ~2) or they alternate and
  // each waits for two flushes, and which of the two the run settles in
  // doubled fresh latency between otherwise identical runs.
  constexpr double kThinkMeanMs = 1.0;
  // The run is split into rounds of this length, each on a fresh set-up;
  // the end-to-end timings are the better quartile over rounds.
  constexpr double kRoundSeconds = 5.0;
  const Seeds seeds(config.seed);
  PassResult r;

  const size_t rounds =
      std::max<size_t>(1, static_cast<size_t>(config.seconds / kRoundSeconds));
  const auto slots = static_cast<size_t>(
      config.seconds / static_cast<double>(rounds) * kIngestRate);
  SpanBuffer* setup_spans = tracer.NewBuffer(4 * rounds);
  abivm::obs::MetricRegistry metrics;
  abivm::obs::Gauge& queue_depth = metrics.gauge("serve.queue_depth");
  std::vector<double> setup_s;
  std::vector<double> gen_s;
  std::vector<double> round_fresh_p50_ms;
  std::vector<double> round_fresh_p99_ms;
  std::vector<double> round_fresh_per_s;
  std::vector<double> round_ingest_per_s;
  std::vector<double> round_lag_p50_ms;
  std::vector<double> round_lag_p99_ms;
  std::vector<double> round_rss_mb;
  std::vector<double> ingest_call_us;
  std::vector<double> stale_us;
  std::vector<double> late_ms;
  std::vector<double> apply_us;
  std::vector<double> act_us;
  double depth_sum = 0.0;
  size_t fresh_reads = 0;
  size_t lag_samples = 0;
  size_t applied = 0;
  double cost = 0.0;
  double measured_s = 0.0;
  std::unique_ptr<ServedSetup> s;
  using Clock = std::chrono::steady_clock;
  auto to_time_point = [](int64_t ns) {
    return Clock::time_point(std::chrono::nanoseconds(ns));
  };

  for (size_t round = 0; round < rounds && r.correct; ++round) {
    SpanBuffer* maintenance_spans = tracer.NewBuffer(4 * slots);
    SpanBuffer* generator_spans = tracer.NewBuffer(2 * slots);
    std::vector<SpanBuffer*> fresh_spans;
    for (int c = 0; c < kFreshClients; ++c) {
      fresh_spans.push_back(tracer.NewBuffer(slots));
    }
    s.reset();
    BeginRoundFootprint();
    s = SetUpServer(kScaleFactor, seeds, &metrics, slots + 1,
                    maintenance_spans, setup_spans);
    setup_s.push_back(s->setup_s);
    gen_s.push_back(s->gen_s);
    ViewServer& server = *s->server;

    std::atomic<bool> stop{false};
    uint64_t accepted = 0;
    uint64_t rejected = 0;
    uint64_t stale_failed = 0;
    std::vector<std::vector<double>> fresh_ms(kFreshClients);
    std::vector<uint64_t> fresh_failed(kFreshClients, 0);
    std::vector<uint64_t> fresh_regressed(kFreshClients, 0);
    const int64_t period_ns = static_cast<int64_t>(1e9 / kIngestRate);
    const int64_t t0 = NowNs() + 2'000'000;  // let every thread start

    std::thread generator([&] {
      abivm::Rng mix(seeds.mix);
      uint64_t last_stale_epoch = 0;
      for (size_t i = 0; i < slots; ++i) {
        const int64_t due = t0 + static_cast<int64_t>(i) * period_ns;
        std::this_thread::sleep_until(to_time_point(due));
        const bool supplier = mix.UniformDouble(0.0, 1.0) < kSupplierShare;
        const int64_t call = NowNs();
        late_ms.push_back(NsToMs(call - due));
        s->ingest->SetDue(i, due);
        const abivm::Status st = server.Ingest(MakeOp(&s->ctx, i, supplier));
        const int64_t called = NowNs();
        if (st.ok()) {
          ++accepted;
        } else {
          ++rejected;
        }
        ingest_call_us.push_back(static_cast<double>(called - call) / 1e3);
        depth_sum += static_cast<double>(queue_depth.value());
        const uint64_t epoch = StaleRead(server);
        const int64_t read = NowNs();
        stale_us.push_back(static_cast<double>(read - called) / 1e3);
        if (epoch == 0 || epoch < last_stale_epoch) ++stale_failed;
        last_stale_epoch = epoch;
        if (generator_spans != nullptr) {
          generator_spans->Add("serve.ingest", Layer::kServe, call, called);
          generator_spans->Add("serve.read_stale", Layer::kServe, called,
                               read);
        }
      }
    });
    std::vector<std::thread> fresh;
    for (int c = 0; c < kFreshClients; ++c) {
      fresh.emplace_back([&, c] {
        abivm::Rng think(seeds.mix + 1 + static_cast<uint64_t>(c));
        std::this_thread::sleep_until(to_time_point(t0));
        uint64_t last_epoch = 0;
        std::vector<double>& lat = fresh_ms[c];
        lat.reserve(slots);
        while (!stop.load(std::memory_order_relaxed)) {
          const int64_t start = NowNs();
          auto got = server.ReadFresh(0);
          const int64_t end = NowNs();
          if (!got.ok()) {
            ++fresh_failed[c];
            continue;
          }
          lat.push_back(NsToMs(end - start));
          if ((*got)->epoch <= last_epoch) ++fresh_regressed[c];
          last_epoch = (*got)->epoch;
          if (fresh_spans[c] != nullptr) {
            fresh_spans[c]->Add("serve.read_fresh", Layer::kServe, start, end);
          }
          const double u = think.UniformDouble(0.0, 1.0);
          std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
              -kThinkMeanMs * std::log1p(-u)));
        }
      });
    }
    generator.join();
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : fresh) t.join();
    const double wall_s = static_cast<double>(NowNs() - t0) / 1e9;
    measured_s += wall_s;

    auto closing = server.ReadFresh(0);
    server.Stop();
    round_rss_mb.push_back(PeakRssMb());
    LagSummary lag;
    if (!closing.ok()) {
      r.Fail("closing ReadFresh failed: " + closing.status().ToString());
    } else {
      CheckServedRun(*s, slots, accepted, (*closing)->epoch, &r, &lag);
    }
    std::vector<double> round_fresh;
    uint64_t fresh_fail_total = 0;
    for (int c = 0; c < kFreshClients; ++c) {
      round_fresh.insert(round_fresh.end(), fresh_ms[c].begin(),
                         fresh_ms[c].end());
      fresh_fail_total += fresh_failed[c];
      if (fresh_regressed[c] > 0) r.Fail("a fresh reader's epoch went back");
    }
    if (stale_failed > 0) r.Fail("a stale read was null or went back");
    // Ingests, their stale reads, fresh reads and the closing read.
    r.attempted += 2 * slots + round_fresh.size() + fresh_fail_total + 1;
    r.failed += rejected + stale_failed + fresh_fail_total +
                (closing.ok() ? 0 : 1);
    round_fresh_p50_ms.push_back(Quantile(round_fresh, 0.5));
    round_fresh_p99_ms.push_back(Quantile(round_fresh, 0.99));
    round_fresh_per_s.push_back(static_cast<double>(round_fresh.size()) /
                                wall_s);
    round_ingest_per_s.push_back(static_cast<double>(accepted) / wall_s);
    round_lag_p50_ms.push_back(Quantile(lag.lags_ms, 0.5));
    round_lag_p99_ms.push_back(Quantile(lag.lags_ms, 0.99));
    fresh_reads += round_fresh.size();
    lag_samples += lag.lags_ms.size();
    applied += lag.applied;
    cost += s->policy->model_cost();
    apply_us.insert(apply_us.end(), s->probe.apply_us.begin(),
                    s->probe.apply_us.end());
    act_us.insert(act_us.end(), s->probe.act_us.begin(),
                  s->probe.act_us.end());
  }

  r.e2e["setup_s"] = Median(setup_s);
  r.e2e["op_p50_ms"] = LowQuartile(round_fresh_p50_ms);
  r.e2e["op_p99_ms"] = LowQuartile(round_fresh_p99_ms);
  r.e2e["op_per_s"] = HighQuartile(round_fresh_per_s);
  r.e2e["ingest_ops_per_s"] = HighQuartile(round_ingest_per_s);
  r.e2e["visible_lag_p50_ms"] = LowQuartile(round_lag_p50_ms);
  r.e2e["visible_lag_p99_ms"] = LowQuartile(round_lag_p99_ms);
  r.e2e["maint_cost_per_mod"] = applied > 0 ? cost / applied : 0.0;
  r.e2e["peak_rss_mb"] = Median(round_rss_mb);

  // Timings are the better quartile over rounds; n is the samples they
  // pool.
  auto& rep = r.report;
  rep.push_back(FormatLine("setup_s", r.e2e["setup_s"], "s", setup_s.size()));
  rep.push_back(FormatLine("fresh_p50_ms", r.e2e["op_p50_ms"], "ms",
                           fresh_reads));
  rep.push_back(FormatLine("fresh_p99_ms", r.e2e["op_p99_ms"], "ms",
                           fresh_reads));
  rep.push_back(FormatLine("fresh_reads_per_s", r.e2e["op_per_s"], "1/s",
                           fresh_reads));
  rep.push_back(FormatLine("visible_lag_p50_ms", r.e2e["visible_lag_p50_ms"],
                           "ms", lag_samples));
  rep.push_back(FormatLine("visible_lag_p99_ms", r.e2e["visible_lag_p99_ms"],
                           "ms", lag_samples));
  rep.push_back(FormatLine("ingest_ops_per_s", r.e2e["ingest_ops_per_s"],
                           "1/s", applied));
  rep.push_back(FormatLine("maint_cost_model", cost, "model", applied));
  rep.push_back(FormatLine("error_ratio",
                           static_cast<double>(r.failed) /
                               static_cast<double>(r.attempted),
                           "fraction", r.attempted));
  rep.push_back(FormatLine("peak_rss_mb", r.e2e["peak_rss_mb"], "MB",
                           round_rss_mb.size()));
  rep.push_back(FormatRounds("fresh_p50_ms", round_fresh_p50_ms));
  rep.push_back(FormatRounds("visible_lag_p50_ms", round_lag_p50_ms));

  if (tracer.enabled() && s != nullptr) {
    AddServeLayerMetrics(*s, metrics, &r);
    MaintenanceProbe pooled;
    pooled.apply_us = std::move(apply_us);
    pooled.act_us = std::move(act_us);
    AddProbeLayerMetrics(pooled, measured_s, &r);
    r.layer["serve.ingest_call_us.p99"] = Quantile(ingest_call_us, 0.99);
    r.layer["serve.queue_depth.mean"] =
        depth_sum / static_cast<double>(ingest_call_us.size());
    r.layer["serve.read_stale_us.p50"] = Quantile(stale_us, 0.5);
    r.layer["serve.read_stale_us.p99"] = Quantile(stale_us, 0.99);
    r.layer["tpc.gen_s"] = Median(gen_s);
    r.layer["loadgen.late_p99_ms"] = Quantile(late_ms, 0.99);
  }
  return r;
}

PassResult RunServeIngestSmall(const RunConfig& config, Tracer& tracer) {
  constexpr double kScaleFactor = 0.01;
  // Fixed op count per round: the served path never vacuums, so batch
  // cost grows with run length and throughput is only comparable at a
  // fixed count. Rounds repeat (each on a fresh set-up) until the run's
  // measured time reaches --seconds.
  constexpr size_t kOpsPerRound = 150'000;
  constexpr double kStaleRate = 1000.0;  // reads/s, fixed schedule
  const Seeds seeds(config.seed);
  PassResult r;

  abivm::obs::MetricRegistry metrics;
  constexpr size_t kMaxRounds = 256;
  // Spans of every op are recorded for the first rounds only, which
  // bounds the traced pass's memory; registry metrics cover every round.
  constexpr size_t kTracedRounds = 2;
  SpanBuffer* setup_spans = tracer.NewBuffer(4 * kMaxRounds);
  // Per-round summaries; the end-to-end timings are their better
  // quartile, set-up and memory their median.
  std::vector<double> setup_s;
  std::vector<double> gen_s;
  std::vector<double> round_ops_per_s;
  std::vector<double> round_calls_per_s;
  std::vector<double> round_call_p50_ms;
  std::vector<double> round_call_p99_ms;
  std::vector<double> round_lag_p50_ms;
  std::vector<double> round_lag_p99_ms;
  std::vector<double> round_drain_ms;
  std::vector<double> round_rss_mb;
  std::vector<double> call_ms;
  call_ms.reserve(kOpsPerRound);
  std::vector<double> stale_us;
  std::vector<double> apply_us;
  std::vector<double> act_us;
  double depth_sum = 0.0;
  uint64_t depth_samples = 0;
  double measured_s = 0.0;
  double traced_s = 0.0;
  double cost = 0.0;
  size_t applied = 0;
  std::unique_ptr<ServedSetup> s;

  while (measured_s < config.seconds && setup_s.size() < kMaxRounds) {
    const bool traced = setup_s.size() < kTracedRounds;
    SpanBuffer* maintenance_spans =
        traced ? tracer.NewBuffer(2 * kOpsPerRound + 4096) : nullptr;
    SpanBuffer* producer_spans =
        traced ? tracer.NewBuffer(kOpsPerRound) : nullptr;
    SpanBuffer* reader_spans = traced ? tracer.NewBuffer(1 << 16) : nullptr;
    s.reset();
    BeginRoundFootprint();
    s = SetUpServer(kScaleFactor, seeds, &metrics, kOpsPerRound,
                    maintenance_spans, setup_spans);
    setup_s.push_back(s->setup_s);
    gen_s.push_back(s->gen_s);
    ViewServer& server = *s->server;
    abivm::obs::Gauge& queue_depth = metrics.gauge("serve.queue_depth");

    std::atomic<bool> done{false};
    uint64_t accepted = 0;
    uint64_t rejected = 0;
    uint64_t stale_failed = 0;
    uint64_t stale_reads = 0;
    call_ms.clear();
    const int64_t t0 = NowNs();
    std::thread producer([&] {
      abivm::Rng mix(seeds.mix);
      for (size_t i = 0; i < kOpsPerRound; ++i) {
        const bool supplier = mix.UniformDouble(0.0, 1.0) < kSupplierShare;
        const int64_t call = NowNs();
        s->ingest->SetDue(i, call);
        const abivm::Status st = server.Ingest(MakeOp(&s->ctx, i, supplier));
        const int64_t called = NowNs();
        if (st.ok()) {
          ++accepted;
        } else {
          ++rejected;
        }
        call_ms.push_back(NsToMs(called - call));
        depth_sum += static_cast<double>(queue_depth.value());
        ++depth_samples;
        if (producer_spans != nullptr) {
          producer_spans->Add("serve.ingest", Layer::kServe, call, called);
        }
      }
      done.store(true, std::memory_order_relaxed);
    });
    std::thread reader([&] {
      const int64_t period_ns = static_cast<int64_t>(1e9 / kStaleRate);
      uint64_t last_epoch = 0;
      for (int64_t due = t0; !done.load(std::memory_order_relaxed);
           due += period_ns) {
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(due)));
        const int64_t start = NowNs();
        const uint64_t epoch = StaleRead(server);
        const int64_t end = NowNs();
        ++stale_reads;
        if (epoch == 0 || epoch < last_epoch) ++stale_failed;
        last_epoch = epoch;
        stale_us.push_back(static_cast<double>(end - start) / 1e3);
        if (reader_spans != nullptr) {
          reader_spans->Add("serve.read_stale", Layer::kServe, start, end);
        }
      }
    });
    producer.join();
    const int64_t drain_start = NowNs();
    auto closing = server.ReadFresh(0);
    const int64_t t_end = NowNs();
    reader.join();
    server.Stop();
    round_rss_mb.push_back(PeakRssMb());

    const double wall_s = static_cast<double>(t_end - t0) / 1e9;
    measured_s += wall_s;
    LagSummary lag;
    if (!closing.ok()) {
      r.Fail("closing ReadFresh failed: " + closing.status().ToString());
    } else {
      CheckServedRun(*s, kOpsPerRound, accepted, (*closing)->epoch, &r, &lag);
    }
    if (stale_failed > 0) r.Fail("a stale read was null or went back");
    r.attempted += kOpsPerRound + stale_reads + 1;
    r.failed += rejected + stale_failed + (closing.ok() ? 0 : 1);
    round_ops_per_s.push_back(static_cast<double>(lag.applied) / wall_s);
    round_calls_per_s.push_back(static_cast<double>(kOpsPerRound) * 1e9 /
                                static_cast<double>(drain_start - t0));
    round_call_p50_ms.push_back(Quantile(call_ms, 0.5));
    round_call_p99_ms.push_back(Quantile(call_ms, 0.99));
    round_lag_p50_ms.push_back(Quantile(lag.lags_ms, 0.5));
    round_lag_p99_ms.push_back(Quantile(lag.lags_ms, 0.99));
    round_drain_ms.push_back(NsToMs(t_end - drain_start));
    cost += s->policy->model_cost();
    applied += lag.applied;
    if (traced) {
      traced_s += wall_s;
      apply_us.insert(apply_us.end(), s->probe.apply_us.begin(),
                      s->probe.apply_us.end());
      act_us.insert(act_us.end(), s->probe.act_us.begin(),
                    s->probe.act_us.end());
    }
    if (!r.correct) break;
  }

  const size_t rounds = setup_s.size();
  r.e2e["setup_s"] = Median(setup_s);
  r.e2e["op_p50_ms"] = LowQuartile(round_call_p50_ms);
  r.e2e["op_p99_ms"] = LowQuartile(round_call_p99_ms);
  r.e2e["op_per_s"] = HighQuartile(round_calls_per_s);
  r.e2e["ingest_ops_per_s"] = HighQuartile(round_ops_per_s);
  r.e2e["visible_lag_p50_ms"] = LowQuartile(round_lag_p50_ms);
  r.e2e["visible_lag_p99_ms"] = LowQuartile(round_lag_p99_ms);
  r.e2e["maint_cost_per_mod"] = applied > 0 ? cost / applied : 0.0;
  r.e2e["peak_rss_mb"] = Median(round_rss_mb);

  // Timings are the better quartile over rounds of kOpsPerRound ops.
  auto& rep = r.report;
  rep.push_back(FormatLine("setup_s", r.e2e["setup_s"], "s", rounds));
  rep.push_back(FormatLine("ingest_ops_per_s", r.e2e["ingest_ops_per_s"],
                           "1/s", rounds));
  rep.push_back(FormatLine("visible_lag_p50_ms", r.e2e["visible_lag_p50_ms"],
                           "ms", rounds));
  rep.push_back(FormatLine("visible_lag_p99_ms", r.e2e["visible_lag_p99_ms"],
                           "ms", rounds));
  rep.push_back(FormatLine("ingest_call_p50_ms", r.e2e["op_p50_ms"], "ms",
                           rounds));
  rep.push_back(FormatLine("ingest_call_p99_ms", r.e2e["op_p99_ms"], "ms",
                           rounds));
  rep.push_back(FormatLine("closing_drain_ms", Median(round_drain_ms), "ms",
                           rounds));
  rep.push_back(FormatLine("maint_cost_model", cost, "model", applied));
  rep.push_back(FormatLine("error_ratio",
                           static_cast<double>(r.failed) /
                               static_cast<double>(r.attempted),
                           "fraction", r.attempted));
  rep.push_back(FormatLine("peak_rss_mb", r.e2e["peak_rss_mb"], "MB",
                           rounds));
  rep.push_back(FormatRounds("ingest_ops_per_s", round_ops_per_s));

  if (tracer.enabled() && s != nullptr) {
    AddServeLayerMetrics(*s, metrics, &r);
    MaintenanceProbe pooled;
    pooled.apply_us = std::move(apply_us);
    pooled.act_us = std::move(act_us);
    AddProbeLayerMetrics(pooled, traced_s, &r);
    r.layer["serve.ingest_call_us.p99"] = Median(round_call_p99_ms) * 1e3;
    r.layer["serve.queue_depth.mean"] = depth_sum / depth_samples;
    r.layer["serve.read_stale_us.p50"] = Quantile(stale_us, 0.5);
    r.layer["serve.read_stale_us.p99"] = Quantile(stale_us, 0.99);
    r.layer["tpc.gen_s"] = Median(gen_s);
  }
  return r;
}

}  // namespace perfbench
