//===- workload/BranchBehavior.cpp - Per-site outcome models --------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "workload/BranchBehavior.h"

#include <algorithm>
#include <cmath>

using namespace specctrl;
using namespace specctrl::workload;

const char *workload::behaviorKindName(BehaviorKind Kind) {
  switch (Kind) {
  case BehaviorKind::FixedBias:
    return "fixed";
  case BehaviorKind::FlipAt:
    return "flip-at";
  case BehaviorKind::Soften:
    return "soften";
  case BehaviorKind::InductionFlip:
    return "induction-flip";
  case BehaviorKind::Periodic:
    return "periodic";
  case BehaviorKind::RandomWalk:
    return "random-walk";
  case BehaviorKind::PhaseGroup:
    return "phase-group";
  case BehaviorKind::InputDependent:
    return "input-dependent";
  }
  return "<invalid>";
}

double workload::takenProbability(const BehaviorSpec &Spec, uint64_t Exec,
                                  bool GroupOn, bool InputFlip,
                                  BehaviorState &State, Rng &R) {
  switch (Spec.Kind) {
  case BehaviorKind::FixedBias:
    return Spec.BiasA;

  case BehaviorKind::FlipAt:
    return Exec < Spec.ChangeAt ? Spec.BiasA : Spec.BiasB;

  case BehaviorKind::Soften: {
    if (Exec < Spec.ChangeAt)
      return Spec.BiasA;
    const double T = static_cast<double>(Exec - Spec.ChangeAt) /
                     static_cast<double>(Spec.Period);
    const double Blend = std::exp(-T);
    return Spec.BiasB + (Spec.BiasA - Spec.BiasB) * Blend;
  }

  case BehaviorKind::InductionFlip:
    return Exec >= Spec.ChangeAt ? 1.0 : 0.0;

  case BehaviorKind::Periodic: {
    const bool HighRegime = (Exec / Spec.Period) % 2 == 0;
    return HighRegime ? Spec.BiasA : Spec.BiasB;
  }

  case BehaviorKind::RandomWalk: {
    if (!State.WalkInit) {
      State.WalkBias = Spec.BiasA;
      State.WalkInit = true;
    }
    const double Step = 1.0 / static_cast<double>(Spec.Period);
    State.WalkBias += R.nextBool(0.5) ? Step : -Step;
    // Reflect into a band that never looks highly biased.
    State.WalkBias = std::clamp(State.WalkBias, 0.2, 0.8);
    return State.WalkBias;
  }

  case BehaviorKind::PhaseGroup:
    return GroupOn ? Spec.BiasA : Spec.BiasB;

  case BehaviorKind::InputDependent:
    return InputFlip ? Spec.BiasB : Spec.BiasA;
  }
  return 0.5;
}

bool workload::drawOutcome(const BehaviorSpec &Spec, uint64_t Exec,
                           bool GroupOn, bool InputFlip, BehaviorState &State,
                           Rng &R) {
  if (Spec.Kind == BehaviorKind::InductionFlip)
    return Exec >= Spec.ChangeAt;
  const double P =
      takenProbability(Spec, Exec, GroupOn, InputFlip, State, R);
  return R.nextBool(P);
}

double workload::expectedTakenRate(const BehaviorSpec &Spec,
                                   uint64_t TotalExecs, bool InputFlip,
                                   double GroupOnFraction) {
  if (TotalExecs == 0)
    return 0.5;
  const double N = static_cast<double>(TotalExecs);
  switch (Spec.Kind) {
  case BehaviorKind::FixedBias:
    return Spec.BiasA;
  case BehaviorKind::FlipAt:
  case BehaviorKind::Soften: {
    // Treat soften as an immediate switch for calibration purposes.
    const double Before =
        std::min(N, static_cast<double>(Spec.ChangeAt)) / N;
    return Before * Spec.BiasA + (1.0 - Before) * Spec.BiasB;
  }
  case BehaviorKind::InductionFlip: {
    const double Before =
        std::min(N, static_cast<double>(Spec.ChangeAt)) / N;
    return 1.0 - Before;
  }
  case BehaviorKind::Periodic:
    return 0.5 * (Spec.BiasA + Spec.BiasB);
  case BehaviorKind::RandomWalk:
    return Spec.BiasA;
  case BehaviorKind::PhaseGroup:
    return GroupOnFraction * Spec.BiasA + (1.0 - GroupOnFraction) * Spec.BiasB;
  case BehaviorKind::InputDependent:
    return InputFlip ? Spec.BiasB : Spec.BiasA;
  }
  return 0.5;
}
