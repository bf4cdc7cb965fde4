//===- workload/ProgramSynthesizer.h - Workload -> SimIR --------*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers branch-behavior models to runnable SimIR programs for the
/// distiller and MSSP timing experiments.  A synthesized program is a main
/// loop that each iteration (a) checkpoints its iteration counter (the task
/// boundary MSSP keys on), (b) dispatches to one of several region
/// functions following a precomputed schedule, and (c) advances.  Each
/// region function is a sequence of branch "gadgets" whose outcomes come
/// from pre-generated input tapes in memory -- real code over synthetic
/// input data, so distilled versions can be checked architecturally.
///
/// Two gadget shapes exist:
///  * tape branch -- loads a 0/1 outcome and branches on it (the plain
///    biased-branch case); both arms do distinguishable accumulator work.
///  * value check -- loads a data value and a comparison bound that is
///    frequently a constant, then branches on the comparison: the Fig. 1
///    pattern that value speculation + constant folding distills.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_WORKLOAD_PROGRAMSYNTHESIZER_H
#define SPECCTRL_WORKLOAD_PROGRAMSYNTHESIZER_H

#include "ir/Function.h"
#include "workload/BranchBehavior.h"

#include <string>
#include <vector>

namespace specctrl {
namespace workload {

/// One branch gadget inside a region.
struct SynthSite {
  BehaviorSpec Behavior;
  /// Extra ALU instructions on each arm (models real work; gives the
  /// distiller something to eliminate).
  unsigned FillerThen = 2;
  unsigned FillerElse = 2;
  /// Value-check shape (Fig. 1): branch on (data < bound) where the bound
  /// is CommonValue with probability ValueInvariance.
  bool UseValueCheck = false;
  int64_t CommonValue = 32;
  double ValueInvariance = 0.999;
};

/// A region function: its gadgets run in order once per invocation.
struct SynthRegion {
  std::string Name;
  std::vector<SynthSite> Sites;
  /// Relative frequency in the dispatch schedule.
  double Weight = 1.0;
};

/// A whole synthetic program.
struct SynthSpec {
  std::string Name;
  uint64_t Seed = 1;
  uint64_t Iterations = 100000;
  std::vector<SynthRegion> Regions;
};

/// Where a synthesized site's branch lives and what drives it.
struct SynthSiteInfo {
  ir::SiteId Site = 0;
  uint32_t Region = 0;      ///< region index
  uint32_t FunctionId = 0;  ///< region function id in the module
  BehaviorSpec Behavior;
  bool IsControlSite = false; ///< loop/dispatch branch (never assert)
};

/// The synthesis result: module + initial memory + metadata.
struct SynthProgram {
  ir::Module Mod;
  std::vector<uint64_t> InitialMemory;
  uint64_t Iterations = 0;
  uint32_t MainFunction = 0;
  std::vector<uint32_t> RegionFunctions; ///< per region: function id
  std::vector<SynthSiteInfo> Sites;      ///< indexed by SiteId
  /// Memory word the main loop stores its iteration counter to each
  /// iteration -- the MSSP task-boundary marker.
  uint64_t IterationAddr = 0;
  /// Memory words holding per-region accumulators (the architectural
  /// live-outs that task verification compares).
  std::vector<uint64_t> AccumulatorAddrs;
  /// Memory words holding per-site tape counters.
  std::vector<uint64_t> CounterAddrs;

  /// Every memory word the program can write: the iteration marker, the
  /// accumulators, and the tape counters.  Task digests cover exactly this
  /// set, so digest equality implies full writable-state equality.
  std::vector<uint64_t> writableAddrs() const {
    std::vector<uint64_t> Out;
    Out.reserve(1 + AccumulatorAddrs.size() + CounterAddrs.size());
    Out.push_back(IterationAddr);
    Out.insert(Out.end(), AccumulatorAddrs.begin(), AccumulatorAddrs.end());
    Out.insert(Out.end(), CounterAddrs.begin(), CounterAddrs.end());
    return Out;
  }
};

/// Synthesizes \p Spec into a verified SimIR program.  Deterministic in
/// Spec.Seed.  Throws std::invalid_argument on a spec with no regions or
/// zero iterations.
SynthProgram synthesize(const SynthSpec &Spec);

/// Builds a representative default program for examples/benches: \p
/// NumRegions regions with a mix of biased, changing, and value-check
/// gadgets.  \p BiasedFraction controls how much of the dynamic branch
/// stream is highly biased.
SynthSpec makeDefaultSynthSpec(const std::string &Name, uint64_t Seed,
                               uint64_t Iterations, unsigned NumRegions = 4,
                               double BiasedFraction = 0.6);

} // namespace workload
} // namespace specctrl

#endif // SPECCTRL_WORKLOAD_PROGRAMSYNTHESIZER_H
