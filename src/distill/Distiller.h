//===- distill/Distiller.h - Speculative code distillation ------*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The distiller: MSSP's speculative dynamic optimizer (Sec. 4.1, Fig. 1).
/// Given a region function and a set of speculations -- asserted branch
/// directions from the speculation controller and frequently-invariant
/// load values from the value profiler -- it produces a *distilled* code
/// version with NO checking or fixup code:
///
///   1. value speculation  : invariant loads become constants;
///   2. branch assertion   : asserted conditional branches become jumps;
///   3. straightening      : unreachable blocks go away, single-pred /
///                           single-succ chains merge;
///   4. constant folding   : locally-known constants fold through the ALU
///                           (turning further branches into jumps);
///   5. dead code elimination: computation feeding only removed branches
///                           (e.g. the outcome loads) disappears.
///
/// The distilled version must correspond to the original only at task
/// boundaries and only in memory (region functions communicate through
/// memory; registers are function-local scratch), which is what gives the
/// optimizer its freedom -- and what task-granular verification checks.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_DISTILL_DISTILLER_H
#define SPECCTRL_DISTILL_DISTILLER_H

#include "ir/Function.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace specctrl {
namespace distill {

/// Identifies a static instruction within one function version.
struct LocKey {
  uint32_t Block = 0;
  uint32_t Index = 0;

  friend bool operator<(const LocKey &A, const LocKey &B) {
    return A.Block != B.Block ? A.Block < B.Block : A.Index < B.Index;
  }
  friend bool operator==(const LocKey &A, const LocKey &B) {
    return A.Block == B.Block && A.Index == B.Index;
  }
};

/// What to speculate when distilling one function.
struct DistillRequest {
  /// Asserted conditional branches: site -> assumed outcome.
  std::map<ir::SiteId, bool> BranchAssertions;
  /// Value-speculated loads (original-function coordinates) -> constant.
  std::map<LocKey, int64_t> ValueConstants;
};

/// Parses a SITE:t|n[,...] list (the --assert option of specctrl-opt and
/// specctrl-lint) into \p Out.  Returns false on a malformed item: SITE
/// must be an unsigned 32-bit decimal and the direction t or n.
bool parseBranchAssertions(const std::string &List,
                           std::map<ir::SiteId, bool> &Out);

/// Parses a BB:IDX:CONST[,...] list (the --value option) into \p Out.
/// Returns false on a malformed item: BB and IDX must be unsigned 32-bit
/// decimals and CONST a signed 64-bit decimal.
bool parseValueConstants(const std::string &List,
                         std::map<LocKey, int64_t> &Out);

/// The distillation outcome.
struct DistillResult {
  ir::Function Distilled;
  size_t OriginalSize = 0;
  size_t DistilledSize = 0;
  /// Sites whose branch instruction was removed.
  std::vector<ir::SiteId> AssertedSites;
  /// Loads replaced by constants.
  uint32_t SpeculatedLoads = 0;
  /// Instructions removed by DCE/folding/straightening beyond the
  /// asserted branches themselves.
  size_t InstructionsEliminated() const {
    return OriginalSize > DistilledSize ? OriginalSize - DistilledSize : 0;
  }
};

/// Distills \p Original under \p Request.  The result is verified
/// structurally before being returned; the caller deploys it via the code
/// cache / interpreter code map.
DistillResult distillFunction(const ir::Function &Original,
                              const DistillRequest &Request);

// ---- Individual passes (exposed for unit testing) ------------------------

/// Pass 1: replace value-speculated loads with MovImm.
/// Returns the number of loads rewritten.
uint32_t applyValueSpeculation(ir::Function &F,
                               const std::map<LocKey, int64_t> &Constants);

/// Pass 2: replace asserted branches with jumps to the assumed target;
/// appends the removed sites to \p Removed.
void applyBranchAssertions(ir::Function &F,
                           const std::map<ir::SiteId, bool> &Assertions,
                           std::vector<ir::SiteId> &Removed);

/// Pass 3: drop unreachable blocks and merge single-pred/single-succ jump
/// chains.  Returns true if anything changed.
bool straightenFunction(ir::Function &F);

/// Pass 4: block-local constant propagation and folding; branches on
/// known conditions become jumps.  Returns true if anything changed.
bool foldConstants(ir::Function &F);

/// Pass 5: remove register-writing instructions whose results are dead
/// (stores, calls, and terminators are roots; nothing is live out of the
/// function).  Returns true if anything changed.
bool eliminateDeadCode(ir::Function &F);

} // namespace distill
} // namespace specctrl

#endif // SPECCTRL_DISTILL_DISTILLER_H
