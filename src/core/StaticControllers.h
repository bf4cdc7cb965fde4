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
  /// A batch of one event.
  BranchVerdict onBranch(SiteId Site, bool Taken, uint64_t InstRet) override;
  /// The fixed selection never changes mid-run, so the whole chunk is
  /// scored from one code byte per event, with counters summed locally
  /// and added once; a site's per-site stats are written only when it is
  /// first seen.
  void onBatch(std::span<const workload::BranchEvent> Events,
               BranchVerdict *Verdicts) override;
  bool isDeployed(SiteId Site) const override;
  bool deployedDirection(SiteId Site) const override;
  const ControlStats &stats() const override { return Stats; }
  ControlStats &stats() override { return Stats; }
  const char *name() const override { return PolicyName; }

private:
  /// Bits of a site's code byte.
  enum : uint8_t { SelectedBit = 1, TakenBit = 2, SeenBit = 4 };

  /// Marks \p Site seen: touches it in the stats, and marks it ever
  /// biased when it is selected.
  void markSeen(SiteId Site);

  /// One code byte per site: the profile's sites, grown to cover any
  /// site seen beyond them.
  std::vector<uint8_t> Codes;
  const char *PolicyName;
  ControlStats Stats;
};

} // namespace core
} // namespace specctrl

#endif // SPECCTRL_CORE_STATICCONTROLLERS_H
