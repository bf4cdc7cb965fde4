//===- distill/ValueProfiler.h - Invariant-load detection -------*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A value profiler for load instructions: detects loads that produce the
/// same value nearly every execution (Fig. 1's "x.d is frequently 32"),
/// the input to the distiller's value speculation.  Uses a Boyer-Moore
/// majority vote per load site plus exact hit counting for the current
/// candidate, so a strongly invariant value is found in one pass with two
/// words of state.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_DISTILL_VALUEPROFILER_H
#define SPECCTRL_DISTILL_VALUEPROFILER_H

#include "distill/Distiller.h"
#include "exec/ThreadedBackend.h"

#include <map>

namespace specctrl {
namespace distill {

/// Per-load-site value statistics.
struct ValueStats {
  uint64_t Executions = 0;
  uint64_t Candidate = 0;      ///< current majority candidate value
  uint64_t CandidateHits = 0;  ///< exact executions matching the candidate
  int64_t Vote = 0;            ///< Boyer-Moore vote balance

  /// Fraction of profiled executions producing the candidate.
  double invariance() const {
    return Executions ? static_cast<double>(CandidateHits) /
                            static_cast<double>(Executions)
                      : 0.0;
  }
};

/// An execution policy (exec/ThreadedBackend.h) that profiles load values
/// for one function.
class ValueProfiler : public exec::NoEvents {
public:
  /// Profiles loads executed inside function \p FunctionId only.
  explicit ValueProfiler(uint32_t FunctionId) : FunctionId(FunctionId) {}

  void noteLoad(const exec::InstLocation &L, uint64_t Addr, uint64_t Value,
                uint64_t Done);

  const std::map<LocKey, ValueStats> &sites() const { return Sites; }

  /// Extracts value-speculation candidates: loads with at least
  /// \p MinExecs profiled executions and invariance >= \p MinInvariance.
  std::map<LocKey, int64_t> invariantLoads(double MinInvariance = 0.995,
                                           uint64_t MinExecs = 64) const;

private:
  uint32_t FunctionId;
  std::map<LocKey, ValueStats> Sites;
};

} // namespace distill
} // namespace specctrl

#endif // SPECCTRL_DISTILL_VALUEPROFILER_H
