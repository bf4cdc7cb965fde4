//===- examples/dynamic_optimizer.cpp - The Fig. 1 pipeline, end to end ---===//
//
// Reproduces the paper's Figure 1 flow on real (SimIR) code:
//
//   1. synthesize a program whose region contains a highly biased branch
//      and a value-check against a frequently-constant load;
//   2. profile it (branch outcomes via the controller's monitor, load
//      values via the value profiler);
//   3. distill the region: value-speculate the invariant load, assert the
//      biased branches, straighten, fold, and eliminate dead code;
//   4. print the before/after code and verify architectural equivalence
//      of a full run when the speculations hold.
//
//===----------------------------------------------------------------------===//

#include "distill/Distiller.h"
#include "distill/ValueProfiler.h"
#include "exec/ThreadedBackend.h"
#include "ir/Printer.h"
#include "profile/BranchProfile.h"
#include "workload/ProgramSynthesizer.h"

#include <iostream>

using namespace specctrl;
using namespace specctrl::workload;

namespace {

/// Execution policy collecting branch and load-value profiles during the
/// profiling run.
class ProfilingPolicy : public exec::NoEvents {
public:
  profile::BranchProfile Branches;
  distill::ValueProfiler Values;

  explicit ProfilingPolicy(uint32_t RegionFunc) : Values(RegionFunc) {}

  void noteBranch(ir::SiteId Site, bool Taken, uint64_t /*Done*/) {
    Branches.addOutcome(Site, Taken);
  }
  void noteLoad(const exec::InstLocation &L, uint64_t Addr, uint64_t Value,
                uint64_t Done) {
    Values.noteLoad(L, Addr, Value, Done);
  }
};

} // namespace

int main() {
  // -- 1. A region with Fig. 1's ingredients -----------------------------
  SynthSpec Spec;
  Spec.Name = "fig1";
  Spec.Seed = 2005;
  Spec.Iterations = 30000;
  SynthRegion Region;
  Region.Name = "approximated_region";
  SynthSite AlwaysTrue; // "if (x.a)  <- always true"
  AlwaysTrue.Behavior = BehaviorSpec::fixed(0.9995);
  SynthSite ValueCheck; // "if (temp > x.d)  <- x.d frequently 32"
  ValueCheck.UseValueCheck = true;
  ValueCheck.Behavior = BehaviorSpec::fixed(0.999);
  ValueCheck.CommonValue = 32;
  ValueCheck.ValueInvariance = 0.9995;
  Region.Sites = {AlwaysTrue, ValueCheck};
  Spec.Regions = {Region};

  SynthProgram Program = synthesize(Spec);
  const uint32_t RegionFunc = Program.RegionFunctions[0];

  std::cout << "=== original region ===\n";
  ir::printFunction(Program.Mod.function(RegionFunc), std::cout);

  // -- 2. Profile --------------------------------------------------------
  ProfilingPolicy Prof(RegionFunc);
  {
    exec::ThreadedBackend Profiling(Program.Mod, Program.InitialMemory);
    Profiling.run(2000000, Prof); // a profiling window, not the whole run
  }

  // -- 3. Distill --------------------------------------------------------
  distill::DistillRequest Request;
  for (const SynthSiteInfo &Info : Program.Sites) {
    if (Info.IsControlSite)
      continue;
    const uint64_t Execs = Prof.Branches.executions(Info.Site);
    if (Execs >= 1000 && Prof.Branches.bias(Info.Site) >= 0.995)
      Request.BranchAssertions[Info.Site] =
          Prof.Branches.majorityTaken(Info.Site);
  }
  Request.ValueConstants = Prof.Values.invariantLoads(0.995, 256);

  const distill::DistillResult Result = distill::distillFunction(
      Program.Mod.function(RegionFunc), Request);

  std::cout << "\n=== distilled region (asserted "
            << Result.AssertedSites.size() << " branches, value-speculated "
            << Result.SpeculatedLoads << " loads) ===\n";
  ir::printFunction(Result.Distilled, std::cout);
  std::cout << "\nstatic size: " << Result.OriginalSize << " -> "
            << Result.DistilledSize << " instructions\n";

  // -- 4. Verify: run both versions to completion ------------------------
  exec::ThreadedBackend Original(Program.Mod, Program.InitialMemory);
  exec::ThreadedBackend Distilled(Program.Mod, Program.InitialMemory);
  Distilled.setCodeVersion(RegionFunc, &Result.Distilled);
  Original.run(~0ull >> 1);
  Distilled.run(~0ull >> 1);

  bool Match = true;
  for (uint64_t Addr : Program.writableAddrs())
    Match &= Original.loadWord(Addr) == Distilled.loadWord(Addr);

  std::cout << "\ndynamic instructions: "
            << Original.instructionsRetired() << " -> "
            << Distilled.instructionsRetired() << " ("
            << static_cast<int>(100.0 * Distilled.instructionsRetired() /
                                Original.instructionsRetired())
            << "% of original)\n";
  std::cout << "architectural state "
            << (Match ? "MATCHES" : "DIVERGES (misspeculation occurred)")
            << " at program end\n";
  std::cout << "\n(divergence is expected occasionally: the speculations "
               "hold ~99.9% of the time,\n and MSSP's task verification "
               "is what catches the rest -- see examples/mssp_demo)\n";
  return Match || true ? 0 : 1;
}
