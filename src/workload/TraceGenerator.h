//===- workload/TraceGenerator.h - Branch-event stream ----------*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates the dynamic branch-event stream of a synthetic workload under
/// a chosen input.  This is the trace the paper's functional simulator
/// produces from whole SPEC runs: a sequence of (static site, outcome)
/// pairs separated by non-branch instructions.  Generation is deterministic
/// in (WorkloadSpec, InputConfig).
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_WORKLOAD_TRACEGENERATOR_H
#define SPECCTRL_WORKLOAD_TRACEGENERATOR_H

#include "support/Rng.h"
#include "workload/EventStream.h"
#include "workload/Workload.h"

#include <vector>

namespace specctrl {
namespace workload {

/// Streams the branch events of one (workload, input) run.
class TraceGenerator : public EventSource {
public:
  /// Throws std::invalid_argument naming the violation when
  /// Spec.validate() reports one, in every build.
  TraceGenerator(const WorkloadSpec &Spec, const InputConfig &In);

  /// Fills \p Buffer in one tight pass (phase lookup hoisted out of the
  /// per-event loop); the stream does not depend on the chunking.
  size_t nextBatch(std::span<BranchEvent> Buffer) override;

  /// Restarts the run from the beginning (identical stream).
  void reset();

  uint64_t totalEvents() const { return Input.Events; }
  uint64_t eventsGenerated() const { return Generated; }
  uint64_t instructionsRetired() const { return InstRet; }
  const WorkloadSpec &spec() const { return Spec; }
  const InputConfig &input() const { return Input; }

  /// Per-site execution counts so far (for tests and analyses).
  const std::vector<uint64_t> &siteExecCounts() const { return ExecCounts; }

private:
  /// Marks a slot site whose taken probability changes within the phase.
  /// The loop sends every probability that fails `P >= 0` -- this one, or
  /// a fixed site's negative or NaN bias -- through drawOutcome, which is
  /// exact for every kind.
  static constexpr double VariesInPhase = -1.0;

  /// One slot of a phase's alias table, holding both sites a draw of the
  /// slot may pick -- [0] the slot's own, [1] its alias -- and, for sites
  /// whose kind is fixedWithinPhase, their taken probability in the phase
  /// (VariesInPhase otherwise).
  struct Slot {
    double Keep; ///< AliasTable::keepProbability: P(Site[0], not Site[1])
    double P[2];
    SiteId Site[2];
  };

  /// One phase's site sampler: a uniform slot, then keep-or-alias -- the
  /// RNG calls of AliasTable::sample over the phase's active sites.
  struct PhaseTable {
    BoundedDraw Pick;
    std::vector<Slot> Slots;
  };

  void buildPhaseTables();

  const WorkloadSpec &Spec;
  InputConfig Input;
  Rng R;

  std::vector<PhaseTable> Phases;
  uint64_t EventsPerPhase = 0;
  /// Draws Gap - MinGap (unused when MinGap == MaxGap).
  BoundedDraw GapDraw;

  std::vector<uint64_t> ExecCounts;
  std::vector<BehaviorState> States;
  uint64_t Generated = 0;
  uint64_t InstRet = 0;
};

} // namespace workload
} // namespace specctrl

#endif // SPECCTRL_WORKLOAD_TRACEGENERATOR_H
