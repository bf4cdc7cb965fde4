//===- bench/fig7_mssp_reactivity.cpp - Figure 7 --------------------------===//
//
// Regenerates Figure 7: MSSP performance with closed-loop (eviction arc
// present) vs open-loop (no eviction) speculation control, for monitor
// periods of 1k and 10k executions, normalized to a plain superscalar
// execution of the original program on the leading core.
//
// Series (the paper's marks): B = baseline superscalar (1.0 by
// definition), o/c = open/closed loop with 1k monitoring, O/C = open/
// closed with 10k.  Like the paper's 200M-instruction runs, these runs
// are short; speedups are lower bounds.
//
// The grid (benchmark x {baseline, o, c, O, C}) is an ExperimentPlan of
// task cells: every cell synthesizes its own program and runs its own
// simulation, so --jobs parallelizes them with output bit-identical to a
// serial run.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "mssp/MsspSimulator.h"
#include "support/Table.h"

#include <any>
#include <iostream>

using namespace specctrl;
using namespace specctrl::bench;
using namespace specctrl::engine;
using namespace specctrl::mssp;
using namespace specctrl::workload;

namespace {

/// One MSSP cell: synthesize the benchmark's program and simulate under
/// the given control loop.
MsspResult runOne(const CellContext &Ctx, uint64_t Iterations, bool Eviction,
                  uint64_t MonitorPeriod, bool ValueSpec) {
  SynthProgram Program = synthesize(msspSynthSpec(Ctx, Iterations));
  MsspConfig Cfg;
  Cfg.Control.MonitorPeriod = MonitorPeriod;
  Cfg.Control.EnableEviction = Eviction;
  // Short runs: scale the eviction counter and wait period with the
  // monitor (the paper's short-run desensitization note, Sec. 4.2).
  Cfg.Control.EvictSaturation = 2000;
  Cfg.Control.WaitPeriod = 100000;
  Cfg.OptLatencyCycles = 0; // Fig. 7 uses zero optimization latency
  if (ValueSpec) {
    Cfg.EnableValueSpeculation = true;
    Cfg.ValueControl = Cfg.Control;
  }
  MsspSimulator Sim(Program, Cfg);
  return Sim.run();
}

} // namespace

int main(int Argc, char **Argv) {
  OptionSet Opts("fig7_mssp_reactivity: Figure 7, closed- vs open-loop "
                 "control in the MSSP timing simulation");
  addCsvOption(Opts);
  addBenchmarksOption(Opts);
  addJobsOptions(Opts);
  Opts.addInt("iterations", 90000,
              "main-loop iterations per run (~70 original instructions "
              "each)");
  Opts.addFlag("value-spec",
               "also control load-value speculation reactively");
  if (!Opts.parse(Argc, Argv))
    return Opts.wasError() ? 2 : 0;
  const SuiteOptions Opt = readSuiteOptions(Opts);
  const uint64_t Iterations =
      static_cast<uint64_t>(Opts.getInt("iterations"));
  const bool ValueSpec = Opts.getFlag("value-spec");

  printBanner("Figure 7",
              "MSSP speedup over the superscalar baseline: open (o/O) vs "
              "closed (c/C) loop at 1k/10k monitor periods");

  ExperimentPlan Plan = msspSuitePlan(Opt);
  Plan.addTaskConfig("baseline", [Iterations](const CellContext &Ctx) {
    SynthProgram Program = synthesize(msspSynthSpec(Ctx, Iterations));
    return std::any(simulateSuperscalarBaseline(Program, MachineConfig()));
  });
  const struct {
    const char *Name;
    bool Eviction;
    uint64_t Monitor;
  } Series[4] = {{"open-1k", false, 1000},
                 {"closed-1k", true, 1000},
                 {"open-10k", false, 10000},
                 {"closed-10k", true, 10000}};
  for (const auto &S : Series)
    Plan.addTaskConfig(
        S.Name, [Iterations, ValueSpec, &S](const CellContext &Ctx) {
          return std::any(
              runOne(Ctx, Iterations, S.Eviction, S.Monitor, ValueSpec));
        });

  const RunReport Report = runSuite(Plan, Opt);
  if (!checkReport(Report))
    return 1;

  Table Out({"bench", "o (open,1k)", "c (closed,1k)", "O (open,10k)",
             "C (closed,10k)", "squashes o/c", "distill ratio"});

  double Sums[4] = {0, 0, 0, 0};
  unsigned N = 0;
  for (uint32_t B = 0; B < Plan.benchmarks().size(); ++B) {
    const uint64_t Baseline =
        std::any_cast<uint64_t>(Report.cell(B, 0, 0).Value);
    const MsspResult Runs[4] = {
        std::any_cast<MsspResult>(Report.cell(B, 0, 1).Value),
        std::any_cast<MsspResult>(Report.cell(B, 0, 2).Value),
        std::any_cast<MsspResult>(Report.cell(B, 0, 3).Value),
        std::any_cast<MsspResult>(Report.cell(B, 0, 4).Value)};

    double Speedups[4];
    for (int I = 0; I < 4; ++I) {
      Speedups[I] =
          static_cast<double>(Baseline) / Runs[I].TotalCycles;
      Sums[I] += Speedups[I];
    }
    ++N;

    Out.row()
        .cell(Plan.benchmarks()[B].Spec.Name)
        .cell(Speedups[0], 3)
        .cell(Speedups[1], 3)
        .cell(Speedups[2], 3)
        .cell(Speedups[3], 3)
        .cell(std::to_string(Runs[0].TaskSquashes) + "/" +
              std::to_string(Runs[1].TaskSquashes))
        .cell(Runs[1].distillationRatio(), 3);
  }
  if (N > 1)
    Out.row()
        .cell("geomean-ish (avg)")
        .cell(Sums[0] / N, 3)
        .cell(Sums[1] / N, 3)
        .cell(Sums[2] / N, 3)
        .cell(Sums[3] / N, 3)
        .cell("-")
        .cell("-");

  Out.print(std::cout, Opt.Csv);
  return 0;
}
