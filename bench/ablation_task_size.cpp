//===- bench/ablation_task_size.cpp - MSSP task-granularity ablation ------===//
//
// Ablation behind the paper's Sec. 4.3 observation: MSSP speculates at
// *task* granularity, so multiple branch misspeculations inside one task
// cost one squash -- the observed task-misspeculation rate sits below the
// abstract model's per-branch prediction.  Larger tasks fold more branch
// misses per squash but pay a larger per-squash penalty (more work lost,
// later detection); this sweep exposes the trade-off.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "mssp/MsspSimulator.h"
#include "support/Table.h"

#include <cstdio>
#include <iostream>
#include <stdexcept>

using namespace specctrl;
using namespace specctrl::bench;
using namespace specctrl::mssp;
using namespace specctrl::workload;

int main(int Argc, char **Argv) try {
  OptionSet Opts("ablation_task_size: MSSP task-granularity sweep");
  addCsvOption(Opts);
  Opts.addString("bench", "gzip", "benchmark-like program to run");
  Opts.addInt("iterations", 90000, "main-loop iterations per run");
  if (!Opts.parse(Argc, Argv))
    return Opts.wasError() ? 2 : 0;
  const SuiteOptions Opt = readSuiteOptions(Opts);

  const workload::BenchmarkProfile &Profile =
      profileByName(Opts.getString("bench"));
  const uint64_t Iterations =
      static_cast<uint64_t>(Opts.getInt("iterations"));

  printBanner("Ablation: task size",
              Profile.Name + "-like program: task granularity vs squash "
                             "folding and speedup");

  const SynthSpec Spec = makeSynthSpecFor(Profile, Iterations);
  SynthProgram Baseline = synthesize(Spec);
  const uint64_t BaselineCycles =
      simulateSuperscalarBaseline(Baseline, MachineConfig());

  Table Out({"iterations/task", "speedup", "tasks", "squashes",
             "branch misspecs", "misses folded per squash"});

  for (unsigned TaskIters : {1u, 2u, 4u, 8u, 16u, 32u}) {
    SynthProgram Program = synthesize(Spec);
    MsspConfig Cfg;
    Cfg.Control.MonitorPeriod = 1000;
    Cfg.Control.EvictSaturation = 2000;
    Cfg.Control.WaitPeriod = 100000;
    Cfg.TaskIterations = TaskIters;
    MsspSimulator Sim(Program, Cfg);
    const MsspResult R = Sim.run();
    const uint64_t BranchMisses = R.Controller.IncorrectSpecs;
    Out.row()
        .cell(static_cast<uint64_t>(TaskIters))
        .cell(static_cast<double>(BaselineCycles) / R.TotalCycles, 3)
        .cell(R.Tasks)
        .cell(R.TaskSquashes)
        .cell(BranchMisses)
        .cell(R.TaskSquashes
                  ? static_cast<double>(BranchMisses) / R.TaskSquashes
                  : 0.0,
              2);
  }

  Out.print(std::cout, Opt.Csv);
  return 0;
} catch (const std::invalid_argument &E) {
  std::fprintf(stderr, "error: %s\n", E.what());
  return 2;
}
