//===- perfbench/src/Sweep.cpp - The abstract-model sweep workload --------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
//
// Every suite benchmark on its ref input under Table 4's seven reactive
// variants plus a static column trained on the benchmark's train input, as
// one engine::ExperimentPlan over a shared TraceArena.  Each ref trace is
// generated once and replayed eight times; each train trace is generated
// once and replayed once (by the static column's profile collection).
//
// Untraced iterations run the plan exactly as the artifact binaries do
// (controller columns, engine-managed replay).  Traced iterations run the
// same cells as task columns that make the identical calls with the
// span-recording decorators in between.
//
//===----------------------------------------------------------------------===//

#include "Report.h"
#include "Timed.h"

#include "BenchCommon.h"
#include "Table4Experiment.h"
#include "core/Driver.h"
#include "core/ReactiveController.h"
#include "core/StaticControllers.h"
#include "engine/ExperimentRunner.h"
#include "workload/SpecSuite.h"
#include "workload/TraceArena.h"

#include <any>
#include <mutex>
#include <set>

using namespace perfbench;
using namespace specctrl;

namespace {

constexpr const char *StaticName = "static-train-99";
constexpr double StaticThreshold = 0.99;

class Sweep final : public Workload {
public:
  using Workload::Workload;

  std::vector<std::pair<std::string, std::string>> params() const override {
    return {{"benchmarks", std::to_string(Specs.size())},
            {"events_per_billion", std::to_string(scale().EventsPerBillion)},
            {"site_scale", std::to_string(scale().SiteScale)},
            {"configs", std::to_string(Variants.size() + 1)},
            {"jobs", std::to_string(Opt.Jobs)},
            {"opt_latency", std::to_string(baseConfig().OptLatency)},
            {"wait_period", std::to_string(baseConfig().WaitPeriod)}};
  }

  unsigned setupsPerIteration() const override { return 10; }

  void setup() override {
    Specs.clear();
    const std::vector<workload::BenchmarkProfile> &Profiles =
        workload::suiteProfiles();
    for (size_t I = 0; I < Profiles.size(); ++I) {
      if (Opt.tiny() && Profiles[I].Name != "gzip" && Profiles[I].Name != "mcf")
        continue;
      workload::WorkloadSpec Spec = workload::makeBenchmark(Profiles[I], scale());
      if (Opt.Seed != 0)
        Spec.Seed ^= mixSeed(Opt.Seed, I);
      Specs.push_back(std::move(Spec));
    }
    Variants = bench::table4Variants(baseConfig(), false);
  }

  double iterate(bool Traced) override;
  void endToEnd(MetricMap &Out) const override;
  void perLayer(const std::map<std::string, SpanTotals> &Spans,
                MetricMap &Out) const override;

private:
  workload::SuiteScale scale() const {
    workload::SuiteScale S;
    S.EventsPerBillion = Opt.tiny() ? 1.0e4 : 6.0e4;
    S.SiteScale = Opt.tiny() ? 0.1 : 0.25;
    return S;
  }
  /// The artifact binaries' scaled baseline (--opt-latency 10000,
  /// --wait-period 50000 defaults).
  static core::ReactiveConfig baseConfig() {
    core::ReactiveConfig C = core::ReactiveConfig::baseline();
    C.OptLatency = 10000;
    C.WaitPeriod = 50000;
    return C;
  }
  size_t numConfigs() const { return Variants.size() + 1; }
  std::string configName(size_t C) const {
    return C < Variants.size() ? Variants[C].Name : StaticName;
  }

  /// Builds column \p C's controller for \p Spec.  The static column
  /// collects its train-input profile from \p Arena, or from a fresh
  /// generator when \p Arena is null.
  std::unique_ptr<core::SpeculationController>
  makeController(size_t C, const workload::WorkloadSpec &Spec,
                 workload::TraceArena *Arena, bool Traced);

  /// Traced cells: materializes (Spec, Input) under a span, naming the
  /// first caller per key "workload.generate" and the rest, which block on
  /// or reuse that materialization, "workload.materialize_wait".
  void materializeTraced(workload::TraceArena &Arena,
                         const workload::WorkloadSpec &Spec,
                         const workload::InputConfig &Input);

  void crossCheck(const engine::RunReport &Report,
                  const std::vector<core::ControlStats> &Stats);

  std::vector<workload::WorkloadSpec> Specs;
  std::vector<bench::Table4Variant> Variants;
  std::vector<PlanRun> Runs;
  std::vector<workload::TraceArenaStats> ArenaStats; ///< per run

  std::mutex ClaimMutex;
  std::set<std::string> Claimed; ///< keys materialized this iteration
};

std::unique_ptr<core::SpeculationController>
Sweep::makeController(size_t C, const workload::WorkloadSpec &Spec,
                      workload::TraceArena *Arena, bool Traced) {
  if (C < Variants.size())
    return std::make_unique<core::ReactiveController>(Variants[C].Config);
  if (!Arena)
    return std::make_unique<core::StaticSelectionController>(
        bench::collectProfile(Spec, Spec.trainInput()), StaticThreshold, 1,
        StaticName);

  ScopedSpan Collect("profile.collect");
  if (Traced)
    materializeTraced(*Arena, Spec, Spec.trainInput());
  const std::unique_ptr<workload::EventSource> Train =
      Arena->open(Spec, Spec.trainInput());
  std::unique_ptr<workload::EventSource> Timed;
  if (Traced)
    Timed = std::make_unique<TimedSource>(*Train);
  workload::EventSource &Source = Traced ? *Timed : *Train;
  profile::BranchProfile Profile(Spec.numSites());
  std::vector<workload::BranchEvent> Buffer(workload::DefaultBatchEvents);
  uint64_t Events = 0;
  while (const size_t N = Source.nextBatch(Buffer)) {
    for (size_t I = 0; I < N; ++I)
      Profile.addOutcome(Buffer[I].Site, Buffer[I].Taken);
    Events += N;
  }
  Collect.setItems(Events);
  return std::make_unique<core::StaticSelectionController>(
      Profile, StaticThreshold, 1, StaticName);
}

void Sweep::materializeTraced(workload::TraceArena &Arena,
                              const workload::WorkloadSpec &Spec,
                              const workload::InputConfig &Input) {
  bool First;
  {
    std::lock_guard<std::mutex> Lock(ClaimMutex);
    First = Claimed.insert(Spec.Name + "/" + Input.Name).second;
  }
  ScopedSpan S(First ? "workload.generate" : "workload.materialize_wait");
  const std::shared_ptr<const workload::MaterializedTrace> Trace =
      Arena.materialize(Spec, Input);
  if (First && Trace)
    S.setItems(Trace->totalEvents());
}

double Sweep::iterate(bool Traced) {
  const bool First = Runs.empty();
  ScopedSpan Iter("bench.iteration");
  if (SpanRecorder *Rec = SpanRecorder::active())
    Rec->setRoot(Iter.id());
  Claimed.clear();

  auto Arena = std::make_shared<workload::TraceArena>();
  engine::ExperimentPlan Plan;
  Plan.setBaseSeed(Opt.Seed);
  Plan.setTraceArena(Arena);
  for (const workload::WorkloadSpec &Spec : Specs)
    Plan.addBenchmark(Spec);
  for (size_t C = 0; C < numConfigs(); ++C) {
    if (!Traced) {
      Plan.addConfig(configName(C), [this, C, Arena](
                                        const engine::CellContext &Ctx) {
        return makeController(C, Ctx.Spec, Arena.get(), false);
      });
      continue;
    }
    // The same cell as engine::runPlanCell runs for a controller column,
    // with the decorators in between.
    Plan.addTaskConfig(configName(C), [this, C, Arena](
                                          const engine::CellContext &Ctx) {
      ScopedSpan Cell("engine.cell");
      std::unique_ptr<core::SpeculationController> Controller =
          makeController(C, Ctx.Spec, Arena.get(), true);
      materializeTraced(*Arena, Ctx.Spec, Ctx.Input);
      const std::unique_ptr<workload::EventSource> Source =
          Arena->open(Ctx.Spec, Ctx.Input);
      TimedSource TimedSrc(*Source);
      TimedController TimedCtl(*Controller);
      core::runTrace(TimedCtl, TimedSrc);
      return std::any(Controller->stats());
    });
  }

  engine::RunOptions Jobs;
  Jobs.Jobs = Opt.Jobs;
  const uint64_t Start = nowNs();
  const engine::RunReport Report = engine::runPlan(Plan, Jobs);
  const double Wall = secondsBetween(Start, nowNs());

  PlanRun Run;
  Run.Traced = Traced;
  Run.WallSeconds = Wall;
  Run.Jobs = Report.Jobs;
  std::vector<core::ControlStats> Stats(Report.Cells.size());
  for (size_t I = 0; I < Report.Cells.size(); ++I) {
    const engine::CellResult &Cell = Report.Cells[I];
    const std::string Name =
        Cell.Benchmark + "/" + Cell.Input + "/" + Cell.Config;
    Check.attempt();
    if (Cell.Failed) {
      Check.fail(Name + ": " + Cell.Error);
      continue;
    }
    Stats[I] = Traced ? std::any_cast<core::ControlStats>(Cell.Value)
                      : Cell.Stats;
    const core::ControlStats &S = Stats[I];
    checkDigest("sweep", Name, digestOf(S), I, First);
    Run.Work += static_cast<double>(S.EventsConsumed);
    Run.CellSeconds.push_back(Cell.WallSeconds);
    Run.QueueWaitSeconds += Cell.QueueWaitSeconds;
    Run.Requests += S.DeployRequests + S.RevokeRequests;
    Run.CorrectSpecs += S.CorrectSpecs;
    Run.Speculated += S.CorrectSpecs + S.IncorrectSpecs;
  }
  Runs.push_back(std::move(Run));
  ArenaStats.push_back(Arena->stats());
  {
    ScopedSpan CheckSpan("bench.check");
    crossCheck(Report, Stats);
  }
  return Wall;
}

void Sweep::crossCheck(const engine::RunReport &Report,
                       const std::vector<core::ControlStats> &Stats) {
  // One cell per iteration, rotating over the grid, recomputed without the
  // engine or the arena: a fresh generator feeds core::runWorkload.
  if (Report.Cells.empty())
    return;
  const size_t K =
      (Runs.size() * 7 + Opt.Seed) % Report.Cells.size();
  const engine::CellResult &Cell = Report.Cells[K];
  if (Cell.Failed)
    return;
  const workload::WorkloadSpec &Spec = Specs[Cell.Coord.Benchmark];
  std::unique_ptr<core::SpeculationController> Controller =
      makeController(Cell.Coord.Config, Spec, nullptr, false);
  const core::ControlStats &Independent =
      core::runWorkload(*Controller, Spec, Spec.refInput());
  Check.expect(Independent == Stats[K],
               Cell.Benchmark + "/" + Cell.Config +
                   ": engine+arena stats differ from a direct generator run");
}

void Sweep::endToEnd(MetricMap &Out) const {
  planEndToEnd(Runs, "events_per_s", Out);
}

void Sweep::perLayer(const std::map<std::string, SpanTotals> &Spans,
                     MetricMap &Out) const {
  planPerLayer(Runs, Out);
  std::vector<double> Materializations, BytesPerEvent;
  for (size_t I = 0; I < Runs.size(); ++I) {
    const workload::TraceArenaStats &A = ArenaStats[I];
    if (!Runs[I].Traced || !A.ResidentEvents)
      continue;
    Materializations.push_back(static_cast<double>(A.Materializations));
    BytesPerEvent.push_back(static_cast<double>(A.ResidentBytes) /
                            static_cast<double>(A.ResidentEvents));
  }
  Out["workload.generate_ns_per_event"] = {
      selfNsPerItem(Spans, "workload.generate"), "ns/event"};
  Out["workload.materializations"] = {median(Materializations), "count"};
  Out["workload.encoded_bytes_per_event"] = {median(BytesPerEvent),
                                             "B/event"};
  Out["workload.decode_ns_per_event"] = {
      selfNsPerItem(Spans, "workload.nextBatch"), "ns/event"};
  Out["profile.collect_ns_per_event"] = {
      selfNsPerItem(Spans, "profile.collect"), "ns/event"};
  Out["core.onbatch_ns_per_event"] = {selfNsPerItem(Spans, "core.onBatch"),
                                      "ns/event"};
}

} // namespace

std::unique_ptr<Workload> perfbench::makeSweep(const Options &Opt) {
  return std::make_unique<Sweep>(Opt);
}
