//===- bench/fig8_mssp_latency.cpp - Figure 8 -----------------------------===//
//
// Regenerates Figure 8: MSSP performance is insensitive to the
// (re)optimization latency -- 0, 10^5, and 10^6 cycles are nearly
// indistinguishable (paper: <2%), because deployment delay only defers
// benefit slightly and misbehaving sites keep being caught by the
// trailing execution regardless.
//
// The grid (benchmark x {baseline, three latencies}) is an ExperimentPlan
// of task cells; --jobs parallelizes them with output bit-identical to a
// serial run.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "mssp/MsspSimulator.h"
#include "support/Table.h"

#include <algorithm>
#include <any>
#include <iostream>
#include <string>

using namespace specctrl;
using namespace specctrl::bench;
using namespace specctrl::engine;
using namespace specctrl::mssp;
using namespace specctrl::workload;

int main(int Argc, char **Argv) {
  OptionSet Opts("fig8_mssp_latency: Figure 8, insensitivity to "
                 "optimization latency in the MSSP simulation");
  addCsvOption(Opts);
  addBenchmarksOption(Opts);
  addJobsOptions(Opts);
  Opts.addInt("iterations", 90000, "main-loop iterations per run");
  if (!Opts.parse(Argc, Argv))
    return Opts.wasError() ? 2 : 0;
  const SuiteOptions Opt = readSuiteOptions(Opts);
  const uint64_t Iterations = readCount(Opts, "iterations", 1);

  printBanner("Figure 8",
              "MSSP speedup over the superscalar baseline at optimization "
              "latencies of 0 / 1e5 / 1e6 cycles (closed loop)");

  ExperimentPlan Plan = msspSuitePlan(Opt);
  Plan.addTaskConfig("baseline", [Iterations](const CellContext &Ctx) {
    SynthProgram Program = synthesize(msspSynthSpec(Ctx, Iterations));
    return std::any(simulateSuperscalarBaseline(Program, MachineConfig()));
  });
  const uint64_t Latencies[3] = {0, 100000, 1000000};
  for (const uint64_t Latency : Latencies)
    Plan.addTaskConfig("latency-" + std::to_string(Latency),
                       [Iterations, Latency](const CellContext &Ctx) {
                         SynthProgram Prog =
                             synthesize(msspSynthSpec(Ctx, Iterations));
                         MsspConfig Cfg;
                         Cfg.Control.MonitorPeriod = 1000;
                         Cfg.Control.EvictSaturation = 2000;
                         Cfg.Control.WaitPeriod = 100000;
                         Cfg.OptLatencyCycles = Latency;
                         MsspSimulator Sim(Prog, Cfg);
                         return std::any(Sim.run());
                       });

  const RunReport Report = runSuite(Plan, Opt);
  if (!checkReport(Report))
    return 1;

  Table Out({"bench", "latency 0", "latency 1e5", "latency 1e6",
             "max delta"});

  double Sums[3] = {0, 0, 0};
  unsigned N = 0;
  for (uint32_t B = 0; B < Plan.benchmarks().size(); ++B) {
    const uint64_t Baseline =
        std::any_cast<uint64_t>(Report.cell(B, 0, 0).Value);

    double Speedups[3];
    for (int I = 0; I < 3; ++I) {
      const MsspResult R =
          std::any_cast<MsspResult>(Report.cell(B, 0, 1 + I).Value);
      Speedups[I] = static_cast<double>(Baseline) / R.TotalCycles;
      Sums[I] += Speedups[I];
    }
    ++N;

    const double MaxDelta =
        std::max({Speedups[0], Speedups[1], Speedups[2]}) /
            std::min({Speedups[0], Speedups[1], Speedups[2]}) -
        1.0;
    Out.row()
        .cell(Plan.benchmarks()[B].Spec.Name)
        .cell(Speedups[0], 3)
        .cell(Speedups[1], 3)
        .cell(Speedups[2], 3)
        .cellPercent(MaxDelta);
  }
  if (N > 1)
    Out.row()
        .cell("average")
        .cell(Sums[0] / N, 3)
        .cell(Sums[1] / N, 3)
        .cell(Sums[2] / N, 3)
        .cell("-");

  Out.print(std::cout, Opt.Csv);
  return 0;
}
