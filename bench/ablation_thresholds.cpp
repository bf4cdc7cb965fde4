//===- bench/ablation_thresholds.cpp - Design-choice ablations ------------===//
//
// Ablation study for the two Table 2 parameters the paper motivates but
// does not sweep explicitly (DESIGN.md §5 items 2-3):
//
//  * selection threshold -- why 99.5% and not the 99% evaluation target:
//    the hysteresis margin between selection (99.5%) and eviction (~98%)
//    absorbs sampling noise; lowering the selection threshold admits
//    borderline sites that churn, raising it forfeits benefit;
//  * monitor period -- the false-positive filter: shorter monitors admit
//    briefly-biased sites (misspeculation), longer monitors burn benefit.
//
// Suite-average correct/incorrect rates per setting.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/ReactiveController.h"
#include "support/Table.h"

#include <iostream>
#include <memory>
#include <string>

using namespace specctrl;
using namespace specctrl::bench;
using namespace specctrl::core;
using namespace specctrl::workload;

int main(int Argc, char **Argv) {
  OptionSet Opts("ablation_thresholds: selection-threshold and "
                 "monitor-period sweeps around the Table 2 defaults");
  addSweepOptions(Opts);
  if (!Opts.parse(Argc, Argv))
    return Opts.wasError() ? 1 : 0;
  const SuiteOptions Opt = readSuiteOptions(Opts);

  printBanner("Ablation: thresholds",
              "suite-average rates while sweeping the selection threshold "
              "and the monitor period (all else Table 2)");

  const ReactiveConfig Base = scaledBaseline(Opts);
  const double Thresholds[] = {0.98, 0.99, 0.995, 0.998, 0.9995};
  const uint64_t Periods[] = {1000, 3000, 10000, 30000, 100000};

  // One plan, ten columns: the five selection thresholds, then the five
  // monitor periods.  Every column replays the same reference traces, so
  // the arena materializes each benchmark once and every other cell is
  // pure replay.
  engine::ExperimentPlan Plan = suitePlan(Opt);
  auto AddColumn = [&Plan](const std::string &Name,
                           const ReactiveConfig &Config) {
    Plan.addConfig(Name, [Config](const engine::CellContext &) {
      return std::make_unique<ReactiveController>(Config);
    });
  };
  for (double T : Thresholds) {
    ReactiveConfig C = Base;
    C.SelectThreshold = T;
    AddColumn("select-" + std::to_string(T), C);
  }
  for (uint64_t Period : Periods) {
    ReactiveConfig C = Base;
    C.MonitorPeriod = Period;
    AddColumn("monitor-" + std::to_string(Period), C);
  }
  const engine::RunReport Report = runSuite(Plan, Opt);
  if (!checkReport(Report))
    return 1;

  const size_t NumBenchmarks = Plan.benchmarks().size();
  uint32_t Column = 0;
  {
    Table Out({"selection threshold", "correct", "incorrect", "requests"});
    for (double T : Thresholds) {
      const SuiteAverage A = suiteAverage(Report, NumBenchmarks, Column++);
      Out.row()
          .cellPercent(T, 2)
          .cellPercent(A.Correct)
          .cellPercent(A.Incorrect, 4)
          .cell(A.Requests);
    }
    Out.print(std::cout, Opt.Csv);
  }

  std::cout << '\n';

  {
    Table Out({"monitor period", "correct", "incorrect", "requests"});
    for (uint64_t Period : Periods) {
      const SuiteAverage A = suiteAverage(Report, NumBenchmarks, Column++);
      Out.row()
          .cell(Period)
          .cellPercent(A.Correct)
          .cellPercent(A.Incorrect, 4)
          .cell(A.Requests);
    }
    Out.print(std::cout, Opt.Csv);
  }
  return 0;
}
