//===- bench/fig6_transition_bias.cpp - Figure 6 --------------------------===//
//
// Regenerates Figure 6: the instantaneous misprediction rate (fraction of
// outcomes against the original bias direction) over the first 64
// executions after a site leaves the biased state.  The paper's findings:
// over 50% of evicted statics show bias below 30% in the transition
// vicinity, and ~20% become perfectly biased in the *other* direction
// (those are the only ones needing quick reaction).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/ReactiveController.h"
#include "support/Format.h"
#include "support/Table.h"

#include <algorithm>
#include <iostream>
#include <iterator>
#include <memory>

using namespace specctrl;
using namespace specctrl::bench;
using namespace specctrl::core;
using namespace specctrl::workload;

int main(int Argc, char **Argv) {
  OptionSet Opts("fig6_transition_bias: Figure 6, misprediction rate around "
                 "transitions out of the biased state");
  addSweepOptions(Opts);
  if (!Opts.parse(Argc, Argv))
    return Opts.wasError() ? 2 : 0;
  const SuiteOptions Opt = readSuiteOptions(Opts);

  printBanner("Figure 6",
              "distribution of post-eviction misprediction rates over the "
              "64 executions after leaving the biased state (suite-wide)");

  // Collect transition records across the whole suite under the baseline:
  // one cell per benchmark, each reading its trace once, so the plan has
  // no trace arena and every cell streams its own generator.
  engine::ExperimentPlan Plan = suitePlan(Opt);
  Plan.addConfig("baseline", [Base = scaledBaseline(Opts)](
                                 const engine::CellContext &) {
    return std::make_unique<ReactiveController>(Base);
  });
  const engine::RunReport Report = runSuite(Plan, Opt);
  if (!checkReport(Report))
    return 1;

  std::vector<double> WrongRates;
  for (uint32_t B = 0; B < Plan.benchmarks().size(); ++B) {
    const ControlStats &S = Report.cell(B, 0, 0).Stats;
    for (const TransitionRecord &T : S.Transitions)
      if (T.Observed > 0)
        WrongRates.push_back(static_cast<double>(T.AgainstOriginal) /
                             static_cast<double>(T.Observed));
  }
  std::sort(WrongRates.begin(), WrongRates.end());

  // Histogram over misprediction-rate bands (the figure's x axis).
  const double Bands[] = {0.1, 0.3, 0.5, 0.7, 0.9, 0.98, 1.0001};
  const char *Labels[] = {"<10%",  "10-30%", "30-50%",  "50-70%",
                          "70-90%", "90-98%", ">98% (full reversal)"};
  std::vector<unsigned> Counts(std::size(Bands), 0);
  for (double W : WrongRates) {
    for (size_t B = 0; B < std::size(Bands); ++B)
      if (W < Bands[B]) {
        ++Counts[B];
        break;
      }
  }

  Table Out({"post-eviction misprediction rate", "transitions",
             "fraction", "cumulative"});
  const double Total = std::max<size_t>(WrongRates.size(), 1);
  double Cum = 0.0;
  for (size_t B = 0; B < std::size(Bands); ++B) {
    const double Frac = Counts[B] / Total;
    Cum += Frac;
    Out.row()
        .cell(Labels[B])
        .cell(static_cast<uint64_t>(Counts[B]))
        .cellPercent(Frac)
        .cellPercent(Cum);
  }
  Out.print(std::cout, Opt.Csv);

  // The paper's two headline fractions.
  const double Above30 =
      static_cast<double>(std::count_if(WrongRates.begin(), WrongRates.end(),
                                        [](double W) { return W > 0.70; })) /
      Total;
  const double FullReversal =
      static_cast<double>(std::count_if(WrongRates.begin(), WrongRates.end(),
                                        [](double W) { return W > 0.98; })) /
      Total;
  std::cout << "\ntransitions observed: " << WrongRates.size()
            << "\nfraction with bias < 30% in original direction "
               "(paper: >50%): "
            << formatPercent(Above30)
            << "\nfraction perfectly reversed (paper: ~20%): "
            << formatPercent(FullReversal) << "\n";
  return 0;
}
