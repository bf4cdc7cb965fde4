//===- workload/Workload.h - Synthetic benchmark descriptions ---*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The synthetic-workload substrate that stands in for the paper's SPEC2000
/// integer benchmarks (see DESIGN.md for the substitution argument).  A
/// WorkloadSpec describes a population of static branch sites -- each with a
/// dynamic-frequency weight, a phase-activity mask, optional input gating,
/// and a BranchBehavior -- plus a global phase schedule that drives
/// correlated groups.  An InputConfig selects a named input data set
/// ("train" vs. "ref"): it fixes the run length, the input-parameter bits
/// consumed by InputDependent sites, and which input-gated sites are
/// exercised at all.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_WORKLOAD_WORKLOAD_H
#define SPECCTRL_WORKLOAD_WORKLOAD_H

#include "workload/BranchBehavior.h"

#include <cstdint>
#include <string>
#include <vector>

namespace specctrl {
namespace workload {

/// Identifies a static conditional-branch site (index into the site table).
using SiteId = uint32_t;

/// One static branch site of a synthetic benchmark.
struct SiteSpec {
  BehaviorSpec Behavior;
  /// Relative dynamic execution frequency among sites active in the same
  /// phase.
  double Weight = 1.0;
  /// Bit p set => the site executes during global phase p.
  uint16_t PhaseMask = 0xFFFF;
  /// If set, the site is exercised only under inputs whose coverage bit for
  /// this site is on (models code regions an input may never reach).
  bool InputGated = false;
};

/// A named input data set.  Fields are derived deterministically from the
/// workload seed and the input name, so "train"/"ref" pairs are reproducible.
struct InputConfig {
  std::string Name;
  uint64_t Seed = 0;     ///< drives parameter/coverage bits
  uint64_t Events = 0;   ///< branch events to generate for this input
  /// Probability that an input-gated site is covered by this input.
  double CoverProb = 0.75;

  /// The input-parameter bit consumed by InputDependent sites: flips the
  /// branch's direction under this input.
  bool parameterBit(SiteId Site) const;
  /// Whether this input exercises the (gated) site at all.
  bool covers(SiteId Site) const;
};

/// A complete synthetic benchmark description.
struct WorkloadSpec {
  std::string Name;
  uint64_t Seed = 1;        ///< master seed: behaviors, interleaving
  uint64_t RefEvents = 0;   ///< branch events under the 'ref' input
  uint64_t TrainEvents = 0; ///< branch events under the 'train' input
  unsigned NumPhases = 8;   ///< global phases (equal event spans)
  unsigned MinGap = 1;      ///< min non-branch instructions between branches
  unsigned MaxGap = 8;      ///< max gap (uniform; mean = (Min+Max)/2)
  std::vector<SiteSpec> Sites;
  /// GroupOn[g][p]: phase-group g is in its "on" bias regime during global
  /// phase p.  Sites reference groups via BehaviorSpec::GroupId.
  std::vector<std::vector<bool>> GroupOn;

  uint32_t numSites() const { return static_cast<uint32_t>(Sites.size()); }
  unsigned numGroups() const {
    return static_cast<unsigned>(GroupOn.size());
  }

  /// The first violated rule of a spec the trace generator can run, as a
  /// message; empty when the spec is valid.  The rules: at least one
  /// site, 1-16 phases, 1 <= MinGap <= MaxGap <= 65535 (the event's gap
  /// field is 16 bits), and a nonzero Period for every Soften, Periodic
  /// and RandomWalk site.  TraceGenerator's constructor checks it in
  /// every build.
  std::string validate() const;

  /// The evaluation input (run length RefEvents).
  InputConfig refInput() const;
  /// The differing profiling input (run length TrainEvents, different
  /// parameter and coverage bits) -- Table 1's role.
  InputConfig trainInput() const;

  bool groupOnInPhase(uint32_t Group, unsigned Phase) const {
    if (Group >= GroupOn.size())
      return true;
    const std::vector<bool> &Row = GroupOn[Group];
    return Row.empty() ? true : Row[Phase % Row.size()];
  }

  /// True if \p Site executes under \p In during phase \p Phase.
  bool siteActive(SiteId Site, const InputConfig &In, unsigned Phase) const {
    const SiteSpec &S = Sites[Site];
    if (!(S.PhaseMask & (1u << (Phase % NumPhases))))
      return false;
    if (S.InputGated && !In.covers(Site))
      return false;
    return true;
  }

  /// Expected per-site execution counts under \p In (analytic; used by
  /// suite calibration and tests).
  std::vector<double> expectedSiteExecs(const InputConfig &In) const;

  /// Fraction of dynamic branch executions expected to come from sites
  /// whose whole-run bias exceeds \p BiasThreshold under \p In -- the
  /// analytic analogue of the paper's "% spec" column used to calibrate
  /// site weights.
  double expectedBiasedShare(const InputConfig &In,
                             double BiasThreshold = 0.99) const;
};

} // namespace workload
} // namespace specctrl

#endif // SPECCTRL_WORKLOAD_WORKLOAD_H
