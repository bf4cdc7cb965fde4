//===- bench/fig2_opportunity.cpp - Figure 2 ------------------------------===//
//
// Regenerates Figure 2: the correct/incorrect speculation trade-off.
//
//  * "pareto"  series -- the self-training Pareto frontier, sampled at a
//    ladder of bias thresholds (the solid line);
//  * "self-99" -- the 99% threshold knee point (the filled circle);
//  * "offline" -- selection from a differing training input at the 99%
//    threshold (the triangles; Table 1's input pairs);
//  * "init-<N>" -- selection from the first N executions of each branch
//    (the crosses; N in 1k/10k/100k/300k/1M).
//
// Axes are fractions of the evaluation run's dynamic branches.
//
// There are no controllers here, only profile collection: each
// (benchmark, input) run is an engine cell whose observer streams the
// whole-run profile (and, for the evaluation input, the initial-behavior
// prefix statistics).  All series are computed analytically afterwards.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/Driver.h"
#include "core/StaticControllers.h"
#include "profile/InitialBehavior.h"
#include "profile/Pareto.h"
#include "support/Table.h"

#include <iostream>
#include <memory>
#include <optional>

using namespace specctrl;
using namespace specctrl::bench;
using namespace specctrl::profile;
using namespace specctrl::workload;

namespace {

/// Collects the whole-run profile and, for the evaluation input, the
/// initial-behavior prefix statistics, in one streaming pass.
class Fig2Observer final : public core::TraceObserver {
public:
  Fig2Observer(uint32_t NumSites, bool CollectInitial) : Profile(NumSites) {
    if (CollectInitial)
      Initial.emplace(InitialBehaviorProfile::paperWindows());
  }

  void onEvent(const BranchEvent &Event,
               const core::BranchVerdict &) override {
    Profile.addOutcome(Event.Site, Event.Taken);
    if (Initial)
      Initial->addOutcome(Event.Site, Event.Taken);
  }

  BranchProfile Profile;
  std::optional<InitialBehaviorProfile> Initial;
};

} // namespace

int main(int Argc, char **Argv) {
  OptionSet Opts("fig2_opportunity: Figure 2, the opportunity for software "
                 "speculation and the fragility of non-reactive selection");
  addCsvOption(Opts);
  addSuiteOptions(Opts);
  addJobsOptions(Opts);
  addTraceCacheOption(Opts);
  Opts.addDouble("threshold", 0.99, "selection bias threshold");
  if (!Opts.parse(Argc, Argv))
    return Opts.wasError() ? 2 : 0;
  const SuiteOptions Opt = readSuiteOptions(Opts);
  const double Threshold = Opts.getDouble("threshold");

  printBanner("Figure 2",
              "correct vs incorrect speculation: self-training frontier, "
              "99% knee, differing-input profile, initial-behavior windows");

  // One profile-collection cell per (benchmark, input): ref first, then
  // the differing training input.
  engine::ExperimentPlan Plan;
  Plan.setBaseSeed(Opt.Seed);
  Plan.setTraceArena(makeArena(Opt));
  for (WorkloadSpec &Spec : selectedSuite(Opt)) {
    std::vector<InputConfig> Inputs = {Spec.refInput(), Spec.trainInput()};
    Plan.addBenchmark(std::move(Spec), std::move(Inputs));
  }
  Plan.addConfig("profile", [](const engine::CellContext &) {
    return std::make_unique<core::StaticSelectionController>(
        std::vector<bool>{}, std::vector<bool>{}, "none");
  });
  Plan.setObserverFactory(
      [](const engine::CellContext &Ctx) -> std::unique_ptr<core::TraceObserver> {
        return std::make_unique<Fig2Observer>(
            Ctx.Spec.numSites(), /*CollectInitial=*/Ctx.Input.Name == "ref");
      });

  const engine::RunReport Report = runSuite(Plan, Opt);
  if (!checkReport(Report))
    return 1;

  Table Out({"bench", "series", "param", "correct", "incorrect",
             "selected sites"});

  const double Ladder[] = {0.9999, 0.999, 0.998, 0.995, 0.99, 0.98,
                           0.95,   0.90,  0.80,  0.70,  0.60, 0.51};

  const std::vector<engine::BenchmarkAxis> &Benchmarks = Plan.benchmarks();
  for (uint32_t B = 0; B < Benchmarks.size(); ++B) {
    const std::string &Bench = Benchmarks[B].Spec.Name;
    const auto &Ref =
        static_cast<const Fig2Observer &>(*Report.cell(B, 0, 0).Observer);
    const auto &Train =
        static_cast<const Fig2Observer &>(*Report.cell(B, 1, 0).Observer);
    const BranchProfile &RefProfile = Ref.Profile;
    const InitialBehaviorProfile &Initial = *Ref.Initial;

    for (double T : Ladder) {
      const SelectionResult R = evaluateSelection(RefProfile, RefProfile, T);
      Out.row()
          .cell(Bench)
          .cell("pareto")
          .cell(T, 4)
          .cellPercent(R.Correct)
          .cellPercent(R.Incorrect, 4)
          .cell(R.SelectedSites);
    }

    const SelectionResult Knee =
        evaluateSelection(RefProfile, RefProfile, Threshold);
    Out.row()
        .cell(Bench)
        .cell("self-99")
        .cell(Threshold, 2)
        .cellPercent(Knee.Correct)
        .cellPercent(Knee.Incorrect, 4)
        .cell(Knee.SelectedSites);

    const SelectionResult Offline =
        evaluateSelection(Train.Profile, RefProfile, Threshold);
    Out.row()
        .cell(Bench)
        .cell("offline")
        .cell(Threshold, 2)
        .cellPercent(Offline.Correct)
        .cellPercent(Offline.Incorrect, 4)
        .cell(Offline.SelectedSites);

    for (unsigned W = 0; W < Initial.windows().size(); ++W) {
      const SelectionResult R = Initial.evaluate(W, Threshold);
      Out.row()
          .cell(Bench)
          .cell("init-" + std::to_string(Initial.windows()[W]))
          .cell(Threshold, 2)
          .cellPercent(R.Correct)
          .cellPercent(R.Incorrect, 4)
          .cell(R.SelectedSites);
    }
  }

  Out.print(std::cout, Opt.Csv);
  return 0;
}
