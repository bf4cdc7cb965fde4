//===- bench/table5_machine.cpp - Table 5 ---------------------------------===//
//
// Regenerates Table 5: the simulated machine's parameters, read back from
// the MachineConfig defaults so the report can never drift from the code.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "mssp/MachineConfig.h"
#include "support/Format.h"
#include "support/Table.h"

#include <iostream>

using namespace specctrl;
using namespace specctrl::bench;
using namespace specctrl::mssp;

int main(int Argc, char **Argv) {
  OptionSet Opts("table5_machine: Table 5, simulation parameters");
  // The table reads the MachineConfig defaults, so --csv is its only
  // option.
  addCsvOption(Opts);
  if (!Opts.parse(Argc, Argv))
    return Opts.wasError() ? 1 : 0;
  const SuiteOptions Opt = readSuiteOptions(Opts);

  printBanner("Table 5", "simulated CMP parameters (defaults of "
                         "mssp::MachineConfig)");

  const MachineConfig M;
  auto Cache = [](const CacheConfig &C) {
    return formatMagnitude(static_cast<double>(C.SizeBytes)) + "B " +
           std::to_string(C.Assoc) + "-way SA, " +
           std::to_string(C.BlockBytes) + "B blocks, " +
           std::to_string(C.LatencyCycles) + "-cycle";
  };
  auto Core = [](const CoreConfig &C) {
    return std::to_string(C.Width) + "-wide, " +
           std::to_string(C.PipelineDepth) + "-stage pipe, " +
           std::to_string(C.WindowSize) + "-entry window";
  };

  Table Out({"parameter", "leading core", "trailing cores (x" +
                              std::to_string(M.NumTrailing) + ")"});
  Out.row().cell("Pipeline").cell(Core(M.Leading)).cell(Core(M.Trailing));
  Out.row().cell("L1 cache").cell(Cache(M.Leading.L1)).cell(
      Cache(M.Trailing.L1));
  Out.row()
      .cell("Br. pred.")
      .cell(std::to_string(1 << M.Leading.GshareBits) +
            "-counter gshare, " + std::to_string(M.Leading.RasEntries) +
            "-entry RAS")
      .cell("same");
  Out.row().cell("L2 cache").cell("shared " + Cache(M.L2)).cell("shared");
  Out.row()
      .cell("Coherence")
      .cell(std::to_string(M.CoherenceHopCycles) + "-cycle minimum hop")
      .cell("same");
  Out.row()
      .cell("Memory")
      .cell(std::to_string(M.MemoryLatencyCycles) +
            "-cycle latency (after L2)")
      .cell("same");

  Out.print(std::cout, Opt.Csv);
  return 0;
}
