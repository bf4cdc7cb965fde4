//===- bench/table1_inputs.cpp - Table 1 ----------------------------------===//
//
// Regenerates Table 1: the profile/evaluation input pairs and run lengths.
// Our substrate's "inputs" are deterministic parameter/coverage settings
// derived from a seed; the table shows how much they diverge (the property
// Table 1's hand-picked inputs were chosen for) and the scaled run
// lengths.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "support/Format.h"
#include "support/Table.h"

#include <iostream>

using namespace specctrl;
using namespace specctrl::bench;
using namespace specctrl::workload;

int main(int Argc, char **Argv) {
  OptionSet Opts("table1_inputs: Table 1, simulation data sets and run "
                 "lengths (scaled; see DESIGN.md)");
  addCsvOption(Opts);
  addSuiteOptions(Opts);
  if (!Opts.parse(Argc, Argv))
    return Opts.wasError() ? 1 : 0;
  const SuiteOptions Opt = readSuiteOptions(Opts);

  printBanner("Table 1",
              "profile vs evaluation inputs; run lengths scaled from the "
              "paper's billions of instructions");

  Table Out({"bench", "paper len", "ref events", "train events",
             "param bits differing", "coverage differing", "input-dep sites"});

  for (const WorkloadSpec &Spec : selectedSuite(Opt)) {
    const InputConfig Ref = Spec.refInput();
    const InputConfig Train = Spec.trainInput();
    uint32_t ParamDiffs = 0, CoverDiffs = 0, InputDep = 0;
    for (SiteId S = 0; S < Spec.numSites(); ++S) {
      if (Spec.Sites[S].Behavior.Kind == BehaviorKind::InputDependent) {
        ++InputDep;
        ParamDiffs += Ref.parameterBit(S) != Train.parameterBit(S);
      }
      if (Spec.Sites[S].InputGated)
        CoverDiffs += Ref.covers(S) != Train.covers(S);
    }
    const workload::BenchmarkProfile &P = profileByName(Spec.Name);
    Out.row()
        .cell(Spec.Name)
        .cell(formatDouble(P.PaperLenBillions, 0) + "B")
        .cell(formatMagnitude(static_cast<double>(Spec.RefEvents)))
        .cell(formatMagnitude(static_cast<double>(Train.Events)))
        .cell(ParamDiffs)
        .cell(CoverDiffs)
        .cell(InputDep);
  }

  Out.print(std::cout, Opt.Csv);
  return 0;
}
