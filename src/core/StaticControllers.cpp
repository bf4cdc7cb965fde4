//===- core/StaticControllers.cpp - Non-reactive baselines ----------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/StaticControllers.h"

#include <cassert>

using namespace specctrl;
using namespace specctrl::core;

StaticSelectionController::StaticSelectionController(
    const profile::BranchProfile &Profile, double BiasThreshold,
    uint64_t MinExecs, const char *Name)
    : Codes(Profile.numSites(), 0), PolicyName(Name) {
  for (SiteId S = 0; S < Profile.numSites(); ++S) {
    if (Profile.executions(S) < MinExecs ||
        Profile.bias(S) < BiasThreshold)
      continue;
    Codes[S] = SelectedBit | (Profile.majorityTaken(S) ? TakenBit : 0);
  }
}

uint32_t StaticSelectionController::selectedCount() const {
  uint32_t N = 0;
  for (uint8_t C : Codes)
    N += C & SelectedBit;
  return N;
}

BranchVerdict StaticSelectionController::onBranch(SiteId Site, bool Taken,
                                                  uint64_t InstRet) {
  const workload::BranchEvent E{.Site = Site, .Taken = Taken,
                                .InstRet = InstRet};
  BranchVerdict Verdict;
  StaticSelectionController::onBatch({&E, 1}, &Verdict);
  return Verdict;
}

void StaticSelectionController::markSeen(SiteId Site) {
  if (Site >= Codes.size())
    Codes.resize(Site + 1, 0);
  Codes[Site] |= SeenBit;
  Stats.touch(Site);
  if (Codes[Site] & SelectedBit)
    Stats.EverBiased[Site] = 1;
}

void StaticSelectionController::onBatch(
    std::span<const workload::BranchEvent> Events, BranchVerdict *Verdicts) {
  if (Events.empty())
    return;
  Stats.Branches += Events.size();
  Stats.LastInstRet = Events.back().InstRet;
  const uint8_t *Sites = Codes.data();
  size_t NumSites = Codes.size();
  uint64_t Correct = 0, Incorrect = 0;
  for (size_t I = 0; I < Events.size(); ++I) {
    const SiteId Site = Events[I].Site;
    if (Site >= NumSites || !(Sites[Site] & SeenBit)) [[unlikely]] {
      markSeen(Site);
      Sites = Codes.data();
      NumSites = Codes.size();
    }
    const uint8_t Code = Sites[Site];
    const bool Speculated = Code & SelectedBit;
    const bool Right =
        Speculated & (Events[I].Taken == static_cast<bool>(Code & TakenBit));
    Verdicts[I] = {Speculated, Right};
    Correct += Right;
    Incorrect += Speculated & !Right;
  }
  Stats.CorrectSpecs += Correct;
  Stats.IncorrectSpecs += Incorrect;
}

bool StaticSelectionController::isDeployed(SiteId Site) const {
  return Site < Codes.size() && (Codes[Site] & SelectedBit);
}

bool StaticSelectionController::deployedDirection(SiteId Site) const {
  assert(isDeployed(Site) && "no speculation deployed for this site");
  return Codes[Site] & TakenBit;
}
