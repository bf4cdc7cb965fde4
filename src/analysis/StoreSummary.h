//===- analysis/StoreSummary.h - Function write-set summaries ---*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Conservative per-function side-effect summaries over the flat word
/// address space -- the same space the MSSP dirty-set tracking classifies
/// word by word.  A store whose base register is a known
/// constant (via analysis/ConstProp.h) contributes a concrete word
/// address; anything unresolved sets the MayWriteUnknown flag.  Call sites
/// are summarized as the callee-id set, since callee side effects belong
/// to the callee's own summary.
///
/// Summaries only cover *executable* blocks (ConstantFacts), so the
/// distillation checks compare what each code version can actually do at
/// run time; the subset relation between a distilled version and its
/// original is the first safety invariant the DistillVerifier enforces.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_ANALYSIS_STORESUMMARY_H
#define SPECCTRL_ANALYSIS_STORESUMMARY_H

#include "analysis/ConstProp.h"
#include "analysis/Dataflow.h"

#include <cstdint>
#include <vector>

namespace specctrl {
namespace analysis {

/// Where a summarized effect sits in the function (diagnostics).
struct EffectSite {
  uint32_t Block = 0;
  uint32_t Index = 0;
};

/// A function's conservative write/side-effect summary.
struct StoreSummary {
  /// Word addresses the function may store to, resolved statically
  /// (sorted, unique).
  std::vector<uint64_t> ConcreteAddrs;
  /// True if some executable store's address could not be resolved; the
  /// function must then be assumed to write anywhere.
  bool MayWriteUnknown = false;
  /// First unresolved store (valid when MayWriteUnknown).
  EffectSite FirstUnknown;
  /// Function ids of executable call sites (sorted, unique).
  std::vector<uint32_t> Callees;

  bool mayWrite(uint64_t Addr) const;

  /// True if every write this summary allows is also allowed by \p Other
  /// (concrete set inclusion; Other.MayWriteUnknown subsumes everything;
  /// callee-set inclusion).
  bool subsumedBy(const StoreSummary &Other) const;
};

/// Summarizes \p G's function using precomputed constant facts.
StoreSummary computeStoreSummary(const CFGInfo &G, const ConstantFacts &CF);

/// Convenience: builds CFGInfo + ConstantFacts internally.
StoreSummary computeStoreSummary(const ir::Function &F);

} // namespace analysis
} // namespace specctrl

#endif // SPECCTRL_ANALYSIS_STORESUMMARY_H
