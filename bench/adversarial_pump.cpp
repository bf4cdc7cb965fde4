//===- bench/adversarial_pump.cpp - Oscillation-pump adversary ------------===//
//
// Runs the controller-adversarial oscillation pump (ROADMAP 3b): branch
// sites whose bias alternates between "lure" (above the selection
// threshold) and "punish" (heavy misspeculation), with the period sized
// against the monitor window.  Compares static self-training against the
// reactive controller with the paper's oscillation limit (5), with the
// limit disabled, and with a strict limit of 1 -- measuring how much of
// the adversary's damage the Sec. 3.1 limit actually bounds.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/Driver.h"
#include "core/ReactiveController.h"
#include "core/StaticControllers.h"
#include "profile/Pareto.h"
#include "support/Table.h"
#include "workload/AdversarialWorkload.h"

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

std::unique_ptr<SpeculationController> makeNullController() {
  return std::make_unique<StaticSelectionController>(
      std::vector<bool>{}, std::vector<bool>{}, "none");
}

} // namespace

int main(int Argc, char **Argv) {
  OptionSet Opts("adversarial_pump: oscillation-pump adversary vs the "
                 "reactive controller's oscillation limit");
  addCsvOption(Opts);
  addBaselineOptions(Opts);
  addJobsOptions(Opts);
  addTraceCacheOption(Opts);
  Opts.addInt("pump-events", 20000000,
              "branch events in the pump workload's reference run");
  if (!Opts.parse(Argc, Argv))
    return Opts.wasError() ? 2 : 0;
  const SuiteOptions Opt = readSuiteOptions(Opts);

  printBanner("Adversarial pump",
              "oscillation-pumping sites vs the Sec. 3.1 oscillation "
              "limit (rates are fractions of all dynamic branches)");

  const ReactiveConfig Base = scaledBaseline(Opts);

  // Tie the pump's period to the controller it attacks: each lure regime
  // comfortably spans one monitor window, and the per-site skew spreads
  // the flips across the population.
  AdversarialPumpSpec Pump;
  Pump.Events = readCount(Opts, "pump-events", 1);
  Pump.PumpPeriod = 3 * Base.MonitorPeriod;
  Pump.PeriodSkew = Base.MonitorPeriod / 8;

  ReactiveConfig NoLimit = Base;
  NoLimit.OscillationLimit = 0; // zero disables the limit
  ReactiveConfig Strict = Base;
  Strict.OscillationLimit = 1;

  const std::vector<Variant> Variants = {
      {"reactive-limit-5", Base},
      {"reactive-no-limit", NoLimit},
      {"reactive-limit-1", Strict},
  };

  engine::ExperimentPlan Plan;
  Plan.setBaseSeed(Opt.Seed);
  Plan.setTraceArena(makeArena(Opt));
  WorkloadSpec PumpSpec = makeOscillationPump(Pump);
  seedWorkload(PumpSpec, Opt.Seed, 0);
  Plan.addBenchmark(std::move(PumpSpec));

  Plan.addConfig(SelfTrainingName, [](const engine::CellContext &) {
    return makeNullController();
  });
  for (const Variant &V : Variants)
    Plan.addConfig(V.Name, [V](const engine::CellContext &) {
      return std::make_unique<ReactiveController>(V.Config, V.Name);
    });
  Plan.setObserverFactory([](const engine::CellContext &Ctx)
                              -> std::unique_ptr<TraceObserver> {
    if (Ctx.ConfigName != SelfTrainingName)
      return nullptr;
    return std::make_unique<ProfileObserver>(Ctx.Spec.numSites());
  });

  const engine::RunReport Report = runSuite(Plan, Opt);
  if (!checkReport(Report))
    return 1;

  Table Out({"bench", "config", "correct", "incorrect", "evictions",
             "requests", "suppressed"});

  const std::string &Bench = Plan.benchmarks().front().Spec.Name;

  const engine::CellResult &SelfCell = Report.cell(0, 0, 0);
  const auto &Self =
      static_cast<const ProfileObserver &>(*SelfCell.Observer).profile();
  const profile::SelectionResult Ref =
      profile::evaluateSelection(Self, Self, 0.99);
  Out.row()
      .cell(Bench)
      .cell(SelfTrainingName)
      .cellPercent(Ref.Correct)
      .cellPercent(Ref.Incorrect, 4)
      .cell("-")
      .cell("-")
      .cell("-");

  for (uint32_t V = 0; V < Variants.size(); ++V) {
    const ControlStats &S = Report.cell(0, 0, V + 1).Stats;
    Out.row()
        .cell(Bench)
        .cell(Variants[V].Name)
        .cellPercent(S.correctRate())
        .cellPercent(S.incorrectRate(), 4)
        .cell(S.Evictions)
        .cell(S.DeployRequests + S.RevokeRequests)
        .cell(S.SuppressedRequests);
  }

  Out.print(std::cout, Opt.Csv);
  return 0;
}
