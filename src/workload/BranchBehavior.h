//===- workload/BranchBehavior.h - Per-site outcome models ------*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Statistical models of static-branch behavior.  Each static branch site in
/// a synthetic workload carries a BehaviorSpec describing how its taken
/// probability evolves over its own execution count and over global program
/// phase.  The model menagerie covers every behavior class the paper
/// characterizes (Secs. 2.2-2.3, Figs. 3, 6, 9):
///
///  * FixedBias       -- invariant bias (the common case; Sec. 2.1).
///  * FlipAt          -- biased, then abruptly re-biased (possibly fully
///                       reversed) after N executions (Fig. 3, Fig. 6 right).
///  * Soften          -- biased, then the bias "softens" toward a weaker
///                       level (Fig. 6 left).
///  * InductionFlip   -- deterministic function of the execution index:
///                       not-taken for the first N executions, then taken
///                       (the paper's 32,768-iteration induction example).
///  * Periodic        -- alternates between two bias levels with a period in
///                       executions (the mcf/gzip low-frequency time-varying
///                       branches that reactive control exploits).
///  * RandomWalk      -- bias wanders in a bounded band (never reliably
///                       biased; classification noise).
///  * PhaseGroup      -- bias level selected by the workload's global phase
///                       schedule through a group id, so whole groups of
///                       sites flip together (vortex, Fig. 9).
///  * InputDependent  -- direction chosen by the input configuration: the
///                       "program parameter becomes a branch predicate"
///                       failure mode of offline profiling (Sec. 2.2).
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_WORKLOAD_BRANCHBEHAVIOR_H
#define SPECCTRL_WORKLOAD_BRANCHBEHAVIOR_H

#include "support/Rng.h"

#include <cstdint>

namespace specctrl {
namespace workload {

/// The behavior classes described in the file header.
enum class BehaviorKind : uint8_t {
  FixedBias,
  FlipAt,
  Soften,
  InductionFlip,
  Periodic,
  RandomWalk,
  PhaseGroup,
  InputDependent,
};

const char *behaviorKindName(BehaviorKind Kind);

/// Parameters of one site's behavior.  Interpretation by kind:
///  FixedBias:      P(taken) = BiasA always.
///  FlipAt:         P(taken) = BiasA before ChangeAt executions, BiasB after.
///  Soften:         P(taken) = BiasA before ChangeAt, then decays
///                  geometrically toward BiasB over ~Period executions.
///  InductionFlip:  taken = (execIndex >= ChangeAt), deterministic.
///  Periodic:       P(taken) = BiasA or BiasB, alternating every Period
///                  executions (starting in the BiasA regime).
///  RandomWalk:     P(taken) starts at BiasA and random-walks with step
///                  ~1/Period, reflected into [0.2, 0.8].
///  PhaseGroup:     P(taken) = BiasA in phases where the group is "on",
///                  BiasB where it is "off" (see Workload's group schedule).
///  InputDependent: P(taken) = BiasA, but when the input configuration's
///                  parameter bit for this site is set the site instead
///                  behaves with P(taken) = BiasB (factory default: the
///                  fully reversed direction, 1 - BiasA).
struct BehaviorSpec {
  BehaviorKind Kind = BehaviorKind::FixedBias;
  double BiasA = 0.5;      ///< initial / primary P(taken)
  double BiasB = 0.5;      ///< secondary P(taken) (kind-dependent)
  uint64_t ChangeAt = 0;   ///< execution index of the behavior change
  uint64_t Period = 0;     ///< period / time constant (kind-dependent)
  uint32_t GroupId = 0;    ///< correlation group (PhaseGroup only)

  static BehaviorSpec fixed(double Bias) {
    BehaviorSpec S;
    S.Kind = BehaviorKind::FixedBias;
    S.BiasA = Bias;
    return S;
  }

  static BehaviorSpec flipAt(double Before, double After, uint64_t At) {
    BehaviorSpec S;
    S.Kind = BehaviorKind::FlipAt;
    S.BiasA = Before;
    S.BiasB = After;
    S.ChangeAt = At;
    return S;
  }

  static BehaviorSpec soften(double Before, double After, uint64_t At,
                             uint64_t TimeConstant) {
    BehaviorSpec S;
    S.Kind = BehaviorKind::Soften;
    S.BiasA = Before;
    S.BiasB = After;
    S.ChangeAt = At;
    S.Period = TimeConstant;
    return S;
  }

  static BehaviorSpec inductionFlip(uint64_t At) {
    BehaviorSpec S;
    S.Kind = BehaviorKind::InductionFlip;
    S.ChangeAt = At;
    return S;
  }

  static BehaviorSpec periodic(double High, double Low, uint64_t Period) {
    BehaviorSpec S;
    S.Kind = BehaviorKind::Periodic;
    S.BiasA = High;
    S.BiasB = Low;
    S.Period = Period;
    return S;
  }

  static BehaviorSpec randomWalk(double Start, uint64_t TimeConstant) {
    BehaviorSpec S;
    S.Kind = BehaviorKind::RandomWalk;
    S.BiasA = Start;
    S.Period = TimeConstant;
    return S;
  }

  static BehaviorSpec phaseGroup(uint32_t Group, double OnBias,
                                 double OffBias) {
    BehaviorSpec S;
    S.Kind = BehaviorKind::PhaseGroup;
    S.GroupId = Group;
    S.BiasA = OnBias;
    S.BiasB = OffBias;
    return S;
  }

  /// An input-dependent site: P(taken)=Bias normally, P(taken)=AltBias when
  /// the input's parameter bit is set.  The default AltBias fully reverses
  /// the direction (the compiler-option-predicate failure mode).
  static BehaviorSpec inputDependent(double Bias, double AltBias = -1.0) {
    BehaviorSpec S;
    S.Kind = BehaviorKind::InputDependent;
    S.BiasA = Bias;
    S.BiasB = AltBias < 0.0 ? 1.0 - Bias : AltBias;
    return S;
  }
};

/// Per-site mutable behavior state (the RandomWalk position).  Owned by
/// the trace generator and the program synthesizer's input-tape loop.
struct BehaviorState {
  double WalkBias = 0.0;
  bool WalkInit = false;
};

/// Evaluates the taken probability of \p Spec at execution index \p Exec.
/// \p GroupOn tells PhaseGroup sites whether their group is in the "on"
/// regime for the current global phase; \p InputFlip is the site's
/// input-parameter bit (InputDependent only).  RandomWalk advances \p State
/// using \p R.  Soften, Periodic and RandomWalk divide by Period, so it
/// must be nonzero (WorkloadSpec::validate checks every site).
double takenProbability(const BehaviorSpec &Spec, uint64_t Exec, bool GroupOn,
                        bool InputFlip, BehaviorState &State, Rng &R);

/// Draws one outcome from the behavior (wrapper around takenProbability;
/// InductionFlip bypasses the RNG entirely).
bool drawOutcome(const BehaviorSpec &Spec, uint64_t Exec, bool GroupOn,
                 bool InputFlip, BehaviorState &State, Rng &R);

/// True for the kinds whose taken probability reads neither the execution
/// count nor the behavior state nor the RNG: FixedBias, PhaseGroup and
/// InputDependent.  For them takenProbability is one constant per (phase,
/// input), and drawOutcome is R.nextBool of that constant.
constexpr bool fixedWithinPhase(BehaviorKind Kind) {
  return Kind == BehaviorKind::FixedBias || Kind == BehaviorKind::PhaseGroup ||
         Kind == BehaviorKind::InputDependent;
}

/// Whole-run expected taken-rate of \p Spec over \p TotalExecs executions,
/// used for analytic weight calibration (no RNG).  GroupOn/InputFlip as in
/// takenProbability; phase-group sites assume a 50% on-duty cycle unless
/// \p GroupOnFraction overrides it.
double expectedTakenRate(const BehaviorSpec &Spec, uint64_t TotalExecs,
                         bool InputFlip, double GroupOnFraction = 0.5);

} // namespace workload
} // namespace specctrl

#endif // SPECCTRL_WORKLOAD_BRANCHBEHAVIOR_H
