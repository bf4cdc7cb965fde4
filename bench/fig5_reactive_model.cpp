//===- bench/fig5_reactive_model.cpp - Figure 5 ---------------------------===//
//
// Regenerates Figure 5: the reactive control model against static
// self-training, per benchmark, for the baseline configuration and the
// Sec. 3.3 sensitivity variants (no eviction, no revisit, lower eviction
// threshold, eviction by sampling, monitor sampling, more frequent
// revisit), plus an optimization-latency sweep (the paper's headline
// latency-tolerance claim).
//
// All runs -- including the self-training reference, a task column that
// collects the run's profile from the plan's trace arena -- execute as
// one ExperimentPlan on the parallel engine (--jobs workers, output
// independent of the value).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "Table4Experiment.h"

#include "core/Driver.h"
#include "core/ReactiveController.h"
#include "profile/Pareto.h"
#include "support/Table.h"
#include "workload/TraceArena.h"

#include <any>
#include <iostream>
#include <memory>

using namespace specctrl;
using namespace specctrl::bench;
using namespace specctrl::core;
using namespace specctrl::workload;

namespace {

struct Variant {
  const char *Name;
  ReactiveConfig Config;
};

constexpr const char *SelfTrainingName = "self-training-99";

} // namespace

int main(int Argc, char **Argv) {
  OptionSet Opts("fig5_reactive_model: Figure 5, reactive control vs "
                 "self-training and the sensitivity variants");
  addSweepOptions(Opts);
  Opts.addFlag("latency-sweep",
               "also run the 0 / 100k / 1M instruction latency points");
  if (!Opts.parse(Argc, Argv))
    return Opts.wasError() ? 2 : 0;
  const SuiteOptions Opt = readSuiteOptions(Opts);

  printBanner("Figure 5",
              "reactive model vs self-training; sensitivity variants "
              "(rates are fractions of all dynamic branches)");

  const ReactiveConfig Base = scaledBaseline(Opts);
  std::vector<Variant> Variants = {
      {"baseline", Base},
      {"no-eviction", withBaseLatency(Base, ReactiveConfig::noEviction())},
      {"no-revisit", withBaseLatency(Base, ReactiveConfig::noRevisit())},
      {"lower-evict-1k",
       withBaseLatency(Base, ReactiveConfig::lowerEvictionThreshold())},
      {"evict-sampling",
       withBaseLatency(Base, ReactiveConfig::evictionBySampling())},
      {"monitor-sampling",
       withBaseLatency(Base, ReactiveConfig::monitorSampling())},
      {"revisit-100k",
       withBaseLatency(Base, ReactiveConfig::frequentRevisit())},
  };
  if (Opts.getFlag("latency-sweep")) {
    static const char *LatencyNames[] = {"latency-0", "latency-100k",
                                         "latency-1M"};
    const uint64_t Latencies[] = {0, 100000, 1000000};
    for (unsigned I = 0; I < 3; ++I) {
      ReactiveConfig C = Base;
      C.OptLatency = Latencies[I];
      Variants.push_back({LatencyNames[I], C});
    }
  }

  // Grid: the self-training reference first (a task cell that collects
  // the run's profile; the paper's 99% knee is computed from it after the
  // run), then the reactive variants.  Column 0 runs first per benchmark,
  // so the profile cell materializes the trace its siblings replay.
  engine::ExperimentPlan Plan = suitePlan(Opt);
  Plan.setTraceArena(std::make_shared<workload::TraceArena>());
  Plan.addTaskConfig(SelfTrainingName, [Arena = Plan.traceArena()](
                                           const engine::CellContext &Ctx) {
    return std::any(core::collectProfile(*Arena->open(Ctx.Spec, Ctx.Input),
                                         Ctx.Spec.numSites()));
  });
  for (const Variant &V : Variants)
    Plan.addConfig(V.Name, [V](const engine::CellContext &) {
      return std::make_unique<ReactiveController>(V.Config, V.Name);
    });

  const engine::RunReport Report = runSuite(Plan, Opt);
  if (!checkReport(Report))
    return 1;

  Table Out({"bench", "config", "correct", "incorrect", "evictions",
             "requests"});

  const std::vector<engine::BenchmarkAxis> &Benchmarks = Plan.benchmarks();
  for (uint32_t B = 0; B < Benchmarks.size(); ++B) {
    const std::string &Bench = Benchmarks[B].Spec.Name;

    // Self-training reference point (the line's 99% knee).
    const auto &Self = std::any_cast<const profile::BranchProfile &>(
        Report.cell(B, 0, 0).Value);
    const profile::SelectionResult Ref =
        profile::evaluateSelection(Self, Self, 0.99);
    Out.row()
        .cell(Bench)
        .cell(SelfTrainingName)
        .cellPercent(Ref.Correct)
        .cellPercent(Ref.Incorrect, 4)
        .cell("-")
        .cell("-");

    for (uint32_t V = 0; V < Variants.size(); ++V) {
      const ControlStats &S = Report.cell(B, 0, V + 1).Stats;
      Out.row()
          .cell(Bench)
          .cell(Variants[V].Name)
          .cellPercent(S.correctRate())
          .cellPercent(S.incorrectRate(), 4)
          .cell(S.Evictions)
          .cell(S.DeployRequests + S.RevokeRequests);
    }
  }

  Out.print(std::cout, Opt.Csv);
  return 0;
}
