//===- core/AlternativeControllers.cpp - Related-work policies ------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/AlternativeControllers.h"

#include <cassert>
#include <stdexcept>

using namespace specctrl;
using namespace specctrl::core;

DynamoFlushController::DynamoFlushController(const ReactiveConfig &Config,
                                             uint64_t FlushInterval)
    : Config(Config), FlushInterval(FlushInterval),
      NextFlushAt(FlushInterval) {
  if (FlushInterval == 0)
    throw std::invalid_argument("flush interval must be positive");
}

DynamoFlushController::SiteState &DynamoFlushController::state(SiteId Site) {
  if (Site >= States.size())
    States.resize(Site + 1);
  return States[Site];
}

BranchVerdict DynamoFlushController::onBranch(SiteId Site, bool Taken,
                                              uint64_t InstRet) {
  Stats.touch(Site);
  ++Stats.Branches;
  Stats.LastInstRet = InstRet;

  // Preemptive fragment-cache flush: everything is dropped and every site
  // re-enters monitoring -- wholesale, with no per-site evidence.
  if (InstRet >= NextFlushAt) {
    ++Flushes;
    NextFlushAt = InstRet + FlushInterval;
    for (SiteState &S : States)
      S = SiteState();
  }

  SiteState &S = state(Site);
  if (S.Pending && InstRet >= S.ReadyAt) {
    S.Pending = false;
    S.Deployed = true;
    S.Direction = S.PendingDir;
  }

  BranchVerdict Verdict;
  if (S.Deployed) {
    Verdict.Speculated = true;
    Verdict.Correct = Taken == S.Direction;
    ++(Verdict.Correct ? Stats.CorrectSpecs : Stats.IncorrectSpecs);
    return Verdict;
  }

  if (S.Classified)
    return Verdict; // one-shot: rejected until the next flush

  ++S.MonitorExecs;
  S.MonitorTaken += Taken;
  if (S.MonitorExecs < Config.MonitorPeriod)
    return Verdict;

  S.Classified = true;
  const uint32_t NotTaken = S.MonitorExecs - S.MonitorTaken;
  const bool Dir = S.MonitorTaken >= NotTaken;
  const double Bias =
      static_cast<double>(Dir ? S.MonitorTaken : NotTaken) /
      static_cast<double>(S.MonitorExecs);
  if (Bias >= Config.SelectThreshold) {
    ++Stats.DeployRequests;
    Stats.EverBiased[Site] = 1;
    if (Config.OptLatency == 0) {
      S.Deployed = true;
      S.Direction = Dir;
    } else {
      S.Pending = true;
      S.PendingDir = Dir;
      S.ReadyAt = InstRet + Config.OptLatency;
    }
  }
  return Verdict;
}

bool DynamoFlushController::isDeployed(SiteId Site) const {
  return Site < States.size() && States[Site].Deployed;
}

bool DynamoFlushController::deployedDirection(SiteId Site) const {
  assert(isDeployed(Site) && "no speculation deployed for this site");
  return States[Site].Direction;
}

BranchVerdict HardwareCounterController::onBranch(SiteId Site, bool Taken,
                                                  uint64_t InstRet) {
  Stats.touch(Site);
  ++Stats.Branches;
  Stats.LastInstRet = InstRet;
  if (Site >= Counters.size())
    Counters.resize(Site + 1, 1);

  uint8_t &Counter = Counters[Site];
  BranchVerdict Verdict;
  // Per-instance decision: only saturated counters count as "speculating"
  // (hardware applies the optimization to confident instances only).
  if (Counter == 0 || Counter == 3) {
    Verdict.Speculated = true;
    Verdict.Correct = Taken == (Counter == 3);
    ++(Verdict.Correct ? Stats.CorrectSpecs : Stats.IncorrectSpecs);
    Stats.EverBiased[Site] = 1;
  }
  if (Taken) {
    if (Counter < 3)
      ++Counter;
  } else if (Counter > 0) {
    --Counter;
  }
  return Verdict;
}

bool HardwareCounterController::isDeployed(SiteId Site) const {
  return Site < Counters.size() &&
         (Counters[Site] == 0 || Counters[Site] == 3);
}

bool HardwareCounterController::deployedDirection(SiteId Site) const {
  assert(isDeployed(Site) && "counter not confident for this site");
  return Counters[Site] == 3;
}
