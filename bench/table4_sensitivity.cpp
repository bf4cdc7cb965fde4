//===- bench/table4_sensitivity.cpp - Table 4 -----------------------------===//
//
// Regenerates Table 4: suite-average correct/incorrect speculation rates
// for each model configuration, sorted by correct rate as the paper
// presents them.  The load-bearing rows are "no revisit" (loses correct
// speculations) and "no eviction" (misspeculation explodes by ~2 orders
// of magnitude); everything else clusters around the baseline.
//
// Also reports the oscillation-limit ablation the paper quotes in Sec. 3.1
// ("a two-thirds reduction in the number of requested reoptimizations"):
// run with --no-oscillation-limit to see the unconstrained request count.
//
// The (configuration x benchmark) grid is an ExperimentPlan executed by
// the parallel engine; --jobs controls the worker count and any value
// produces identical output.  The grid/formatting live in
// Table4Experiment.h.
//
//===----------------------------------------------------------------------===//

#include "Table4Experiment.h"

#include <iostream>

using namespace specctrl;
using namespace specctrl::bench;

int main(int Argc, char **Argv) {
  OptionSet Opts("table4_sensitivity: Table 4, model sensitivity (suite "
                 "averages)");
  addSweepOptions(Opts);
  Opts.addFlag("no-oscillation-limit",
               "add an ablation row with the per-site optimization cap "
               "disabled");
  if (!Opts.parse(Argc, Argv))
    return Opts.wasError() ? 1 : 0;
  const SuiteOptions Opt = readSuiteOptions(Opts);

  printBanner(Table4Title, Table4Detail);

  const std::vector<Table4Variant> Variants = table4Variants(
      scaledBaseline(Opts), Opts.getFlag("no-oscillation-limit"));
  const engine::ExperimentPlan Plan = table4Plan(Opt, Variants);
  const engine::RunReport Report = runSuite(Plan, Opt);
  if (!checkReport(Report))
    return 1;

  printTable4Report(std::cout, Report, Variants, Plan.benchmarks().size(),
                    Opt.Csv);
  return 0;
}
