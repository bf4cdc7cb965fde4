//===- tests/mssp/MsspResultText.h - MsspResult as text --------*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
//
// Every MsspResult field as one line of text, so a test can pin a whole
// result as a string and a mismatch prints both lines side by side.  The
// controllers' per-site vectors enter as one XXH64 digest.
//
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_TESTS_MSSP_MSSPRESULTTEXT_H
#define SPECCTRL_TESTS_MSSP_MSSPRESULTTEXT_H

#include "mssp/MsspSimulator.h"
#include "support/Hash.h"

#include <sstream>
#include <string>

namespace specctrl {
namespace testutil {

template <class T> uint64_t vectorDigest(const std::vector<T> &V,
                                         uint64_t Seed) {
  return hash64(V.data(), V.size() * sizeof(T), Seed);
}

inline std::string controlStatsText(const core::ControlStats &S) {
  uint64_t Sites = vectorDigest(S.Touched, 1);
  Sites = vectorDigest(S.EverBiased, Sites);
  Sites = vectorDigest(S.SiteEvictions, Sites);
  Sites = vectorDigest(S.Transitions, Sites);
  std::ostringstream OS;
  OS << S.Branches << '/' << S.LastInstRet << '/' << S.CorrectSpecs << '/'
     << S.IncorrectSpecs << '/' << S.DeployRequests << '/'
     << S.RevokeRequests << '/' << S.SuppressedRequests << '/'
     << S.Evictions << '/' << S.Revisits << '/' << S.EventsConsumed << '/'
     << std::hex << Sites;
  return OS.str();
}

inline std::string resultText(const mssp::MsspResult &R) {
  std::ostringstream OS;
  OS << "cycles=" << R.TotalCycles << " tasks=" << R.Tasks
     << " squashes=" << R.TaskSquashes << " master=" << R.MasterInstructions
     << " checker=" << R.CheckerInstructions << " requests=" << R.OptRequests
     << " regens=" << R.Regenerations << " hits=" << R.DistillCacheHits
     << " misses=" << R.DistillCacheMisses
     << " mispredicts=" << R.MasterBranchMispredicts
     << " ctrl=" << controlStatsText(R.Controller)
     << " value=" << controlStatsText(R.ValueController);
  return OS.str();
}

} // namespace testutil
} // namespace specctrl

#endif // SPECCTRL_TESTS_MSSP_MSSPRESULTTEXT_H
