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
// (benchmark, input) run is an engine task cell that streams its
// generator straight into the whole-run profile (and, for the evaluation
// input, the initial-behavior prefix statistics).  Each trace is read
// once, so the plan has no trace arena.  All series are computed
// analytically afterwards.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "profile/InitialBehavior.h"
#include "profile/Pareto.h"
#include "support/Table.h"

#include <any>
#include <iostream>
#include <optional>
#include <vector>

using namespace specctrl;
using namespace specctrl::bench;
using namespace specctrl::profile;
using namespace specctrl::workload;

namespace {

/// One cell's result: the whole-run profile and, for the evaluation
/// input, the initial-behavior prefix statistics.
struct Fig2Profiles {
  BranchProfile Profile;
  std::optional<InitialBehaviorProfile> Initial;
};

/// Collects a cell's profiles in one pass over a fresh generator.
Fig2Profiles collectFig2Profiles(const WorkloadSpec &Spec,
                                 const InputConfig &Input) {
  Fig2Profiles Out{BranchProfile(Spec.numSites()), std::nullopt};
  if (Input.Name == "ref")
    Out.Initial.emplace(InitialBehaviorProfile::paperWindows());
  TraceGenerator Gen(Spec, Input);
  std::vector<BranchEvent> Chunk(DefaultBatchEvents);
  while (const size_t N = Gen.nextBatch(Chunk))
    for (size_t I = 0; I < N; ++I) {
      Out.Profile.addOutcome(Chunk[I].Site, Chunk[I].Taken);
      if (Out.Initial)
        Out.Initial->addOutcome(Chunk[I].Site, Chunk[I].Taken);
    }
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  OptionSet Opts("fig2_opportunity: Figure 2, the opportunity for software "
                 "speculation and the fragility of non-reactive selection");
  addCsvOption(Opts);
  addSuiteOptions(Opts);
  addJobsOptions(Opts);
  Opts.addDouble("threshold", 0.99, "selection bias threshold");
  if (!Opts.parse(Argc, Argv))
    return Opts.wasError() ? 2 : 0;
  const SuiteOptions Opt = readSuiteOptions(Opts);
  const double Threshold = readThreshold(Opts, "threshold");

  printBanner("Figure 2",
              "correct vs incorrect speculation: self-training frontier, "
              "99% knee, differing-input profile, initial-behavior windows");

  // One profile-collection cell per (benchmark, input): ref first, then
  // the differing training input.
  engine::ExperimentPlan Plan;
  Plan.setBaseSeed(Opt.Seed);
  for (WorkloadSpec &Spec : selectedSuite(Opt)) {
    std::vector<InputConfig> Inputs = {Spec.refInput(), Spec.trainInput()};
    Plan.addBenchmark(std::move(Spec), std::move(Inputs));
  }
  Plan.addTaskConfig("profile", [](const engine::CellContext &Ctx) {
    return std::any(collectFig2Profiles(Ctx.Spec, Ctx.Input));
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
        std::any_cast<const Fig2Profiles &>(Report.cell(B, 0, 0).Value);
    const auto &Train =
        std::any_cast<const Fig2Profiles &>(Report.cell(B, 1, 0).Value);
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
