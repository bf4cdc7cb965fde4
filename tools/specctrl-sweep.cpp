//===- tools/specctrl-sweep.cpp - Multi-process sensitivity sweeps --------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
//
// Runs the Table 4 model-sensitivity sweep across forked worker processes
// (engine/ProcessPool.h): the parent shards the (benchmark x
// configuration) grid over --procs workers through a flock'd
// work-stealing index, each worker publishes its cells as checksummed
// fragment files, and the parent merges them back in the stable grid
// order.  Output is byte-identical to bench/table4_sensitivity at any
// worker count -- the cross-process determinism contract, pinned by the
// RunCompare tests.
//
// With --trace-cache-dir the workers replay their traces from read-only
// mappings of the cache files, so N processes share one kernel page-cache
// copy of each materialized trace instead of N resident decodes -- the
// configuration for SPEC-length sweeps (see EXPERIMENTS.md).
//
//===----------------------------------------------------------------------===//

#include "bench/Table4Experiment.h"

#include "engine/ProcessPool.h"
#include "support/RunConfig.h"

#include <cstdio>
#include <iostream>

using namespace specctrl;
using namespace specctrl::bench;

int main(int Argc, char **Argv) {
  OptionSet Opts("specctrl-sweep: Table 4 sensitivity sweep across worker "
                 "processes (byte-identical to table4_sensitivity)");
  addStandardOptions(Opts);
  Opts.addInt("procs",
              static_cast<int64_t>(RunConfig::global().SweepProcs),
              "worker processes (0 = hardware concurrency; default "
              "SPECCTRL_SWEEP_PROCS; results are identical at any value)");
  Opts.addString("work-dir", "",
                 "scratch directory for the work index and cell fragments "
                 "(default: a fresh directory under TMPDIR)");
  Opts.addFlag("no-oscillation-limit",
               "add an ablation row with the per-site optimization cap "
               "disabled");
  if (!Opts.parse(Argc, Argv))
    return Opts.wasError() ? 1 : 0;
  const SuiteOptions Opt = readSuiteOptions(Opts);
  if (Opts.getInt("procs") < 0) {
    std::fprintf(stderr, "specctrl-sweep: --procs must be >= 0\n");
    return 1;
  }

  printBanner(Table4Title, Table4Detail);

  const std::vector<Table4Variant> Variants = table4Variants(
      scaledBaseline(Opts), Opts.getFlag("no-oscillation-limit"));
  const engine::ExperimentPlan Plan = table4Plan(Opt, Variants);

  engine::ProcessRunOptions Run;
  Run.Procs = static_cast<unsigned>(Opts.getInt("procs"));
  Run.WorkDir = Opts.getString("work-dir");
  const engine::RunReport Report = engine::runPlanProcesses(Plan, Run);
  if (!checkReport(Report))
    return 1;

  printTable4Report(std::cout, Report, Variants, Plan.benchmarks().size(),
                    Opt.Csv);
  return 0;
}
