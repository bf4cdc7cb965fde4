//===- workload/Workload.cpp - Synthetic benchmark descriptions -----------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "workload/Workload.h"

#include "workload/EventStream.h"

#include <cassert>
#include <cmath>
#include <limits>

using namespace specctrl;
using namespace specctrl::workload;

namespace {

/// Stateless 64-bit mix (SplitMix64 finalizer) for derived bits.
uint64_t mix(uint64_t X) {
  X ^= X >> 30;
  X *= 0xBF58476D1CE4E5B9ull;
  X ^= X >> 27;
  X *= 0x94D049BB133111EBull;
  X ^= X >> 31;
  return X;
}

} // namespace

bool InputConfig::parameterBit(SiteId Site) const {
  return (mix(Seed ^ (0xA5A5A5A5ull + Site)) & 1) != 0;
}

bool InputConfig::covers(SiteId Site) const {
  const uint64_t H = mix(Seed ^ (0xC3C3C3C3ull + Site));
  return static_cast<double>(H >> 11) * 0x1.0p-53 < CoverProb;
}

std::string WorkloadSpec::validate() const {
  if (Sites.empty())
    return "workload has no branch sites";
  if (NumPhases < 1 || NumPhases > 16)
    return "phase count " + std::to_string(NumPhases) + " is outside 1-16";
  if (MinGap < 1 || MinGap > MaxGap)
    return "instruction-gap range " + std::to_string(MinGap) + "-" +
           std::to_string(MaxGap) + " needs 1 <= MinGap <= MaxGap";
  constexpr unsigned GapLimit =
      std::numeric_limits<decltype(BranchEvent::Gap)>::max();
  if (MaxGap > GapLimit)
    return "MaxGap " + std::to_string(MaxGap) + " exceeds " +
           std::to_string(GapLimit) + ", the event's gap field";
  for (SiteId S = 0; S < numSites(); ++S) {
    const BehaviorSpec &B = Sites[S].Behavior;
    if ((B.Kind == BehaviorKind::Soften || B.Kind == BehaviorKind::Periodic ||
         B.Kind == BehaviorKind::RandomWalk) &&
        B.Period == 0)
      return "site " + std::to_string(S) + " (" + behaviorKindName(B.Kind) +
             ") has period 0";
  }
  return {};
}

InputConfig WorkloadSpec::refInput() const {
  InputConfig In;
  In.Name = "ref";
  In.Seed = mix(Seed ^ 0x7265666Full); // "refo"
  In.Events = RefEvents;
  return In;
}

InputConfig WorkloadSpec::trainInput() const {
  InputConfig In;
  In.Name = "train";
  In.Seed = mix(Seed ^ 0x74726E00ull); // "trn"
  In.Events = TrainEvents ? TrainEvents : RefEvents / 2;
  return In;
}

std::vector<double>
WorkloadSpec::expectedSiteExecs(const InputConfig &In) const {
  assert(NumPhases >= 1 && NumPhases <= 16 && "phase count out of range");
  std::vector<double> Execs(Sites.size(), 0.0);
  const double EventsPerPhase =
      static_cast<double>(In.Events) / static_cast<double>(NumPhases);
  for (unsigned P = 0; P < NumPhases; ++P) {
    double ActiveWeight = 0.0;
    for (SiteId S = 0; S < Sites.size(); ++S)
      if (siteActive(S, In, P))
        ActiveWeight += Sites[S].Weight;
    if (ActiveWeight <= 0.0)
      continue;
    for (SiteId S = 0; S < Sites.size(); ++S)
      if (siteActive(S, In, P))
        Execs[S] += EventsPerPhase * Sites[S].Weight / ActiveWeight;
  }
  return Execs;
}

double WorkloadSpec::expectedBiasedShare(const InputConfig &In,
                                         double BiasThreshold) const {
  const std::vector<double> Execs = expectedSiteExecs(In);
  double Total = 0.0, Biased = 0.0;
  for (SiteId S = 0; S < Sites.size(); ++S) {
    if (Execs[S] <= 0.0)
      continue;
    Total += Execs[S];
    // On-duty fraction for phase-group sites under this spec's schedule.
    double OnFraction = 0.5;
    if (Sites[S].Behavior.Kind == BehaviorKind::PhaseGroup) {
      unsigned On = 0;
      for (unsigned P = 0; P < NumPhases; ++P)
        if (groupOnInPhase(Sites[S].Behavior.GroupId, P))
          ++On;
      OnFraction = static_cast<double>(On) / static_cast<double>(NumPhases);
    }
    const double Rate = expectedTakenRate(
        Sites[S].Behavior, static_cast<uint64_t>(Execs[S]),
        Sites[S].Behavior.Kind == BehaviorKind::InputDependent &&
            In.parameterBit(S),
        OnFraction);
    const double Bias = std::max(Rate, 1.0 - Rate);
    if (Bias >= BiasThreshold)
      Biased += Execs[S];
  }
  return Total > 0.0 ? Biased / Total : 0.0;
}
