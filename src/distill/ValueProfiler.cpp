//===- distill/ValueProfiler.cpp - Invariant-load detection ---------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "distill/ValueProfiler.h"

using namespace specctrl;
using namespace specctrl::distill;

void ValueProfiler::noteLoad(const exec::InstLocation &L, uint64_t Addr,
                             uint64_t Value, uint64_t Done) {
  (void)Addr;
  (void)Done;
  if (L.Func != FunctionId)
    return;
  ValueStats &S = Sites[{L.Block, L.Index}];
  ++S.Executions;
  if (S.Vote == 0) {
    S.Candidate = Value;
    S.CandidateHits = 0;
    S.Vote = 1;
    // Recount starts with this execution; earlier hits for a previous
    // candidate are irrelevant for a strongly invariant load.
  } else {
    S.Vote += Value == S.Candidate ? 1 : -1;
  }
  if (Value == S.Candidate)
    ++S.CandidateHits;
}

std::map<LocKey, int64_t>
ValueProfiler::invariantLoads(double MinInvariance, uint64_t MinExecs) const {
  std::map<LocKey, int64_t> Out;
  for (const auto &[Loc, S] : Sites) {
    if (S.Executions < MinExecs || S.invariance() < MinInvariance)
      continue;
    Out[Loc] = static_cast<int64_t>(S.Candidate);
  }
  return Out;
}
