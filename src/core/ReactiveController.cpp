//===- core/ReactiveController.cpp - The Fig. 4(b) FSM policy -------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/ReactiveController.h"

#include <cassert>
#include <stdexcept>

using namespace specctrl;
using namespace specctrl::core;

namespace {

const ReactiveConfig &checked(const ReactiveConfig &Config) {
  const std::string Violation = Config.validate();
  if (!Violation.empty())
    throw std::invalid_argument("invalid reactive config: " + Violation);
  return Config;
}

} // namespace

ReactiveController::ReactiveController(const ReactiveConfig &Config,
                                       const char *Name)
    : Config(checked(Config)), PolicyName(Name) {}

ReactiveController::SiteState &ReactiveController::state(SiteId Site) {
  if (Site >= States.size()) {
    States.resize(Site + 1);
    // Grown in lockstep with the per-site stats vectors so step() can mark
    // Touched with a plain store instead of re-checking bounds per event.
    Stats.touch(Site);
  }
  return States[Site];
}

bool ReactiveController::isDeployed(SiteId Site) const {
  return Site < States.size() && States[Site].Deployed;
}

bool ReactiveController::deployedDirection(SiteId Site) const {
  assert(isDeployed(Site) && "no speculation deployed for this site");
  return States[Site].DeployedDir;
}

ReactiveController::FsmState ReactiveController::fsmState(SiteId Site) const {
  return Site < States.size() ? States[Site].State : FsmState::Monitor;
}

bool ReactiveController::isOscillationCapped(SiteId Site) const {
  return Site < States.size() && States[Site].Blacklisted;
}

bool ReactiveController::hasPendingRequest(SiteId Site) const {
  return Site < States.size() &&
         States[Site].Pending != PendingKind::None;
}

void ReactiveController::applyPending(SiteState &S) {
  switch (S.Pending) {
  case PendingKind::None:
    return;
  case PendingKind::Deploy:
    S.Deployed = true;
    S.DeployedDir = S.PendingDir;
    break;
  case PendingKind::Revoke:
    S.Deployed = false;
    break;
  }
  S.Pending = PendingKind::None;
}

void ReactiveController::completeRequest(SiteId Site) {
  assert(ExternalSink && "completeRequest without an external sink");
  SiteState &S = state(Site);
  assert(S.Pending != PendingKind::None && "no outstanding request");
  applyPending(S);
}

void ReactiveController::issueRequest(SiteId Site, SiteState &S,
                                      OptRequestKind Kind, bool Direction,
                                      uint64_t InstRet) {
  assert(S.Pending == PendingKind::None && "request collision");
  S.Pending = Kind == OptRequestKind::Deploy ? PendingKind::Deploy
                                               : PendingKind::Revoke;
  S.PendingDir = Direction;
  if (ExternalSink) {
    ExternalSink->onRequest({Kind, Site, Direction});
    return;
  }
  // Built-in latency model: the new code version is live OptLatency
  // dynamic instructions from now (applied lazily at the site's next
  // execution, which is equivalent: deployment only matters when the
  // branch runs).
  S.ReadyAt = InstRet + Config.OptLatency;
  if (Config.OptLatency == 0)
    applyPending(S);
}

void ReactiveController::enterMonitor(SiteState &S) {
  S.State = FsmState::Monitor;
  S.MonitorExecs = 0;
  S.MonitorSampled = 0;
  S.MonitorTaken = 0;
}

void ReactiveController::classify(SiteId Site, SiteState &S,
                                  uint64_t InstRet) {
  assert(S.MonitorSampled > 0 && "classification without samples");
  const uint32_t Taken = S.MonitorTaken;
  const uint32_t NotTaken = S.MonitorSampled - Taken;
  const bool Dir = Taken >= NotTaken;
  const double Bias = static_cast<double>(Dir ? Taken : NotTaken) /
                      static_cast<double>(S.MonitorSampled);

  if (Bias < Config.SelectThreshold) {
    S.State = FsmState::Unbiased;
    S.WaitExecs = 0;
    return;
  }

  // Defer while a code change is still in flight (e.g. the revoke from an
  // eviction): re-monitor and reconsider once the optimizer caught up.
  if (S.Pending != PendingKind::None) {
    enterMonitor(S);
    return;
  }

  if (Config.OscillationLimit &&
      S.Optimizations >= Config.OscillationLimit) {
    // Conservatively stop speculating on serial oscillators.
    S.Blacklisted = true;
    S.State = FsmState::Unbiased;
    S.WaitExecs = 0;
    ++Stats.SuppressedRequests;
    return;
  }

  S.State = FsmState::Biased;
  S.EvictCounter = 0;
  S.WindowPos = 0;
  S.SampleSeen = 0;
  S.SampleWrong = 0;
  ++S.Optimizations;
  ++Stats.DeployRequests;
  Stats.EverBiased[Site] = 1;
  issueRequest(Site, S, OptRequestKind::Deploy, Dir, InstRet);
}

void ReactiveController::evict(SiteId Site, SiteState &S, uint64_t InstRet) {
  ++Stats.Evictions;
  ++Stats.SiteEvictions[Site];
  ++Stats.RevokeRequests;
  // Fig. 6: record the next executions' outcomes against the original
  // bias direction.
  S.TransRemaining = 64;
  S.TransWrong = 0;
  S.TransOriginalDir = S.DeployedDir;
  issueRequest(Site, S, OptRequestKind::Revoke, false, InstRet);
  enterMonitor(S);
}

void ReactiveController::updateBiased(SiteId Site, SiteState &S, bool Taken,
                                      uint64_t InstRet) {
  if (!Config.EnableEviction)
    return;
  // Eviction evidence accumulates only against deployed code; during the
  // deployment latency the site is not yet speculating (Sec. 3.1).
  if (!S.Deployed)
    return;
  const bool Wrong = Taken != S.DeployedDir;

  if (!Config.EvictBySampling) {
    if (Wrong) {
      S.EvictCounter += Config.EvictUp;
      if (S.EvictCounter >= Config.EvictSaturation) {
        evict(Site, S, InstRet);
        return;
      }
    } else {
      S.EvictCounter -= S.EvictCounter >= Config.EvictDown
                            ? Config.EvictDown
                            : S.EvictCounter;
    }
    return;
  }

  // Sampled eviction: observe the first EvictSampleCount executions of
  // each EvictSampleWindow-execution window.
  if (S.WindowPos < Config.EvictSampleCount) {
    ++S.SampleSeen;
    S.SampleWrong += Wrong;
    if (S.WindowPos + 1 == Config.EvictSampleCount) {
      const double SampledBias =
          1.0 - static_cast<double>(S.SampleWrong) /
                    static_cast<double>(S.SampleSeen);
      if (SampledBias < Config.EvictSampleBias) {
        evict(Site, S, InstRet);
        return;
      }
    }
  }
  if (++S.WindowPos >= Config.EvictSampleWindow) {
    S.WindowPos = 0;
    S.SampleSeen = 0;
    S.SampleWrong = 0;
  }
}

BranchVerdict ReactiveController::onBranch(SiteId Site, bool Taken,
                                           uint64_t InstRet) {
  ++Stats.Branches;
  Stats.LastInstRet = InstRet;
  return step(Site, Taken, InstRet);
}

void ReactiveController::onBatch(
    std::span<const workload::BranchEvent> Events, BranchVerdict *Verdicts) {
  if (Events.empty())
    return;
  // Whole-run accounting hoisted out of the FSM loop; per-event it reduces
  // to the same final values (Branches sums, LastInstRet keeps the last).
  Stats.Branches += Events.size();
  Stats.LastInstRet = Events.back().InstRet;
  for (size_t I = 0; I < Events.size(); ++I) {
    const workload::BranchEvent &E = Events[I];
    Verdicts[I] = step(E.Site, E.Taken, E.InstRet);
  }
}

BranchVerdict ReactiveController::step(SiteId Site, bool Taken,
                                       uint64_t InstRet) {
  SiteState &S = state(Site);
  Stats.Touched[Site] = 1; // state() keeps the stats vectors sized
  if (!ExternalSink && S.Pending != PendingKind::None &&
      InstRet >= S.ReadyAt)
    applyPending(S);

  // Account against the deployed code, whatever the FSM thinks.  Branchless
  // on purpose: whether a given event speculates depends on interleaved
  // per-site state, which the branch predictor cannot learn.
  BranchVerdict Verdict;
  const bool Deployed = S.Deployed;
  const bool Correct = Deployed & (Taken == S.DeployedDir);
  Verdict.Speculated = Deployed;
  Verdict.Correct = Correct;
  Stats.CorrectSpecs += Correct;
  Stats.IncorrectSpecs += Deployed & !Correct;

  // Fig. 6 transition vicinity.
  if (S.TransRemaining > 0) {
    S.TransWrong += Taken != S.TransOriginalDir;
    if (--S.TransRemaining == 0)
      Stats.Transitions.push_back(
          {Site, 64, S.TransWrong});
  }

  switch (S.State) {
  case FsmState::Monitor: {
    ++S.MonitorExecs;
    if (Config.MonitorSampleRate == 1 ||
        S.MonitorExecs % Config.MonitorSampleRate == 0) {
      ++S.MonitorSampled;
      S.MonitorTaken += Taken;
    }
    if (S.MonitorExecs >= Config.MonitorPeriod && S.MonitorSampled > 0)
      classify(Site, S, InstRet);
    break;
  }
  case FsmState::Biased:
    updateBiased(Site, S, Taken, InstRet);
    break;
  case FsmState::Unbiased:
    if (S.Blacklisted || !Config.EnableRevisit)
      break;
    if (++S.WaitExecs >= Config.WaitPeriod) {
      ++Stats.Revisits;
      enterMonitor(S);
    }
    break;
  }
  return Verdict;
}
