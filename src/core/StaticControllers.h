//===- core/StaticControllers.h - Non-reactive baselines --------*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Non-reactive speculation-control baselines:
///
///  * StaticSelectionController -- a fixed site->direction selection made
///    from a profile, fully deployed from the first instruction.  Feeding
///    it a training-run profile reproduces the paper's "profiling from a
///    previous run" policy; feeding it the evaluation run's own profile
///    reproduces self-training.  Figs. 2 and 5 compute that point from
///    the whole-run profile alone (profile::evaluateSelection), with no
///    controller run.
///  * Initial-behavior and open-loop policies are ReactiveController
///    configurations (ReactiveConfig::oneShot / noEviction), not separate
///    classes -- the paper's Fig. 4(a) is Fig. 4(b) minus arcs.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_CORE_STATICCONTROLLERS_H
#define SPECCTRL_CORE_STATICCONTROLLERS_H

#include "core/Controller.h"
#include "profile/BranchProfile.h"

#include <vector>

namespace specctrl {
namespace core {

/// A fixed speculation set: sites selected ahead of time, never
/// reconsidered (open-loop profile-guided optimization).
class StaticSelectionController : public SpeculationController {
public:
  /// Builds the selection from \p Profile: speculate, in the profile's
  /// majority direction, on every site with bias >= \p BiasThreshold and
  /// at least \p MinExecs profiled executions.
  StaticSelectionController(const profile::BranchProfile &Profile,
                            double BiasThreshold, uint64_t MinExecs = 1,
                            const char *Name = "static-profile");

  uint32_t selectedCount() const;

  // SpeculationController interface.
  BranchVerdict onBranch(SiteId Site, bool Taken, uint64_t InstRet) override;
  /// Batch path: the fixed selection never changes mid-run, so the whole
  /// chunk is scored with locally-accumulated counters flushed once.
  void onBatch(std::span<const workload::BranchEvent> Events,
               BranchVerdict *Verdicts) override;
  bool isDeployed(SiteId Site) const override;
  bool deployedDirection(SiteId Site) const override;
  const ControlStats &stats() const override { return Stats; }
  ControlStats &stats() override { return Stats; }
  const char *name() const override { return PolicyName; }

private:
  std::vector<bool> Selected;
  std::vector<bool> Direction;
  const char *PolicyName;
  ControlStats Stats;
};

} // namespace core
} // namespace specctrl

#endif // SPECCTRL_CORE_STATICCONTROLLERS_H
