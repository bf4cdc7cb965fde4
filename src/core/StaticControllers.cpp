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
    : PolicyName(Name) {
  Selected.resize(Profile.numSites(), false);
  Direction.resize(Profile.numSites(), false);
  for (SiteId S = 0; S < Profile.numSites(); ++S) {
    if (Profile.executions(S) < MinExecs ||
        Profile.bias(S) < BiasThreshold)
      continue;
    Selected[S] = true;
    Direction[S] = Profile.majorityTaken(S);
  }
}

uint32_t StaticSelectionController::selectedCount() const {
  uint32_t N = 0;
  for (bool B : Selected)
    N += B;
  return N;
}

BranchVerdict StaticSelectionController::onBranch(SiteId Site, bool Taken,
                                                  uint64_t InstRet) {
  Stats.touch(Site);
  ++Stats.Branches;
  Stats.LastInstRet = InstRet;

  BranchVerdict Verdict;
  if (Site < Selected.size() && Selected[Site]) {
    Stats.EverBiased[Site] = 1;
    Verdict.Speculated = true;
    Verdict.Correct = Taken == Direction[Site];
    ++(Verdict.Correct ? Stats.CorrectSpecs : Stats.IncorrectSpecs);
  }
  return Verdict;
}

void StaticSelectionController::onBatch(
    std::span<const workload::BranchEvent> Events, BranchVerdict *Verdicts) {
  if (Events.empty())
    return;
  Stats.Branches += Events.size();
  Stats.LastInstRet = Events.back().InstRet;
  const size_t NumSel = Selected.size();
  uint64_t Correct = 0, Incorrect = 0;
  for (size_t I = 0; I < Events.size(); ++I) {
    const workload::BranchEvent &E = Events[I];
    Stats.touch(E.Site);
    BranchVerdict Verdict;
    if (E.Site < NumSel && Selected[E.Site]) {
      Stats.EverBiased[E.Site] = 1;
      Verdict.Speculated = true;
      Verdict.Correct = E.Taken == Direction[E.Site];
      ++(Verdict.Correct ? Correct : Incorrect);
    }
    Verdicts[I] = Verdict;
  }
  Stats.CorrectSpecs += Correct;
  Stats.IncorrectSpecs += Incorrect;
}

bool StaticSelectionController::isDeployed(SiteId Site) const {
  return Site < Selected.size() && Selected[Site];
}

bool StaticSelectionController::deployedDirection(SiteId Site) const {
  assert(isDeployed(Site) && "no speculation deployed for this site");
  return Direction[Site];
}
