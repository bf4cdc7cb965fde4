//===- bench/table2_parameters.cpp - Table 2 ------------------------------===//
//
// Regenerates Table 2: the reactive model's parameters, read back from the
// ReactiveConfig defaults so the report can never drift from the code.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/ReactiveConfig.h"
#include "support/Format.h"
#include "support/Table.h"

#include <iostream>

using namespace specctrl;
using namespace specctrl::bench;

int main(int Argc, char **Argv) {
  OptionSet Opts("table2_parameters: Table 2, model parameters");
  addCsvOption(Opts);
  if (!Opts.parse(Argc, Argv))
    return Opts.wasError() ? 1 : 0;

  printBanner("Table 2", "reactive control model parameters (defaults of "
                         "core::ReactiveConfig)");

  const core::ReactiveConfig C;
  Table Out({"parameter", "value"});
  Out.row().cell("Monitor period").cell(
      formatWithCommas(C.MonitorPeriod) + " executions");
  Out.row().cell("Selection threshold").cell(
      formatPercent(C.SelectThreshold, 1));
  Out.row().cell("Misspeculation threshold").cell(
      formatWithCommas(C.EvictSaturation) + " (+" +
      std::to_string(C.EvictUp) + " on misp., -" +
      std::to_string(C.EvictDown) + " otherwise)");
  Out.row().cell("Wait period").cell(formatWithCommas(C.WaitPeriod) +
                                     " executions");
  Out.row().cell("Oscillation threshold").cell(
      "will not optimize a " +
      std::to_string(C.OscillationLimit + 1) + "th time");
  Out.row().cell("Optimization latency").cell(
      formatWithCommas(C.OptLatency) + " instructions");

  Out.print(std::cout, Opts.getFlag("csv"));
  return 0;
}
