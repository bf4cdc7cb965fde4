//===- tests/oracle/FsmSpec.cpp - The Fig. 4(b) FSM as rules --------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "FsmSpec.h"

#include <cassert>
#include <limits>

using namespace specctrl;
using namespace specctrl::oracle;

namespace {

/// Fig. 6 follows this many executions after an eviction.
constexpr uint64_t VicinityExecutions = 64;

} // namespace

core::BranchVerdict FsmSpec::step(uint32_t Site, bool Taken,
                                  uint64_t InstRet) {
  Stats.Branches += 1;
  Stats.LastInstRet = InstRet;

  // Rule 1: touch the site; make a due code change live.
  if (Site >= Sites.size()) {
    Sites.resize(Site + 1);
    Stats.Touched.resize(Site + 1, 0);
    Stats.EverBiased.resize(Site + 1, 0);
    Stats.SiteEvictions.resize(Site + 1, 0);
  }
  Stats.Touched[Site] = 1;
  SiteRecord &R = Sites[Site];
  if (R.ChangeRequested && InstRet >= R.ChangeLiveAt) {
    R.ChangeRequested = false;
    R.Speculating = R.ChangeSpeculates;
    if (R.ChangeSpeculates)
      R.SpeculatedTaken = R.ChangeTaken;
  }

  // Rule 2: account against the live code.
  core::BranchVerdict Verdict;
  if (R.Speculating) {
    Verdict.Speculated = true;
    if (Taken == R.SpeculatedTaken) {
      Verdict.Correct = true;
      Stats.CorrectSpecs += 1;
    } else {
      Stats.IncorrectSpecs += 1;
    }
  }

  // Rule 3: Fig. 6's vicinity count.
  if (R.VicinityLeft > 0) {
    if (Taken != R.VicinityTaken)
      R.VicinityAgainst += 1;
    R.VicinityLeft -= 1;
    if (R.VicinityLeft == 0) {
      core::TransitionRecord Record;
      Record.Site = Site;
      Record.Observed = static_cast<uint32_t>(VicinityExecutions);
      Record.AgainstOriginal = static_cast<uint32_t>(R.VicinityAgainst);
      Stats.Transitions.push_back(Record);
    }
  }

  // Rule 4: the FSM.
  if (R.State == Phase::Monitor)
    monitor(Site, R, Taken, InstRet);
  else if (R.State == Phase::Biased)
    biased(Site, R, Taken, InstRet);
  else
    unbiased(R);
  return Verdict;
}

void FsmSpec::monitor(uint32_t Site, SiteRecord &R, bool Taken,
                      uint64_t InstRet) {
  R.Executions += 1;
  if (R.Executions % Config.MonitorSampleRate == 0) {
    R.Samples += 1;
    if (Taken)
      R.SampledTaken += 1;
  }
  if (R.Executions >= Config.MonitorPeriod && R.Samples > 0)
    classify(Site, R, InstRet);
}

void FsmSpec::classify(uint32_t Site, SiteRecord &R, uint64_t InstRet) {
  const uint64_t SampledNotTaken = R.Samples - R.SampledTaken;
  const bool MajorityTaken = R.SampledTaken >= SampledNotTaken;
  const uint64_t Majority = MajorityTaken ? R.SampledTaken : SampledNotTaken;
  const double Bias =
      static_cast<double>(Majority) / static_cast<double>(R.Samples);

  if (Bias < Config.SelectThreshold) {
    R.State = Phase::Unbiased;
    R.Waited = 0;
    return;
  }
  if (R.ChangeRequested) {
    startMonitoring(R);
    return;
  }
  if (Config.OscillationLimit != 0 &&
      R.Optimizations >= Config.OscillationLimit) {
    R.Excluded = true;
    R.State = Phase::Unbiased;
    R.Waited = 0;
    Stats.SuppressedRequests += 1;
    return;
  }
  R.State = Phase::Biased;
  R.EvictCount = 0;
  R.WindowPosition = 0;
  R.WindowWrong = 0;
  R.Optimizations += 1;
  Stats.DeployRequests += 1;
  Stats.EverBiased[Site] = 1;
  requestChange(Site, R, /*Speculate=*/true, MajorityTaken, InstRet);
}

void FsmSpec::biased(uint32_t Site, SiteRecord &R, bool Taken,
                     uint64_t InstRet) {
  if (!Config.EnableEviction || !R.Speculating)
    return;
  const bool Wrong = Taken != R.SpeculatedTaken;

  if (!Config.EvictBySampling) {
    if (Wrong) {
      R.EvictCount += Config.EvictUp;
      if (R.EvictCount >= Config.EvictSaturation)
        evict(Site, R, InstRet);
    } else if (R.EvictCount > Config.EvictDown) {
      R.EvictCount -= Config.EvictDown;
    } else {
      R.EvictCount = 0;
    }
    return;
  }

  if (R.WindowPosition < Config.EvictSampleCount) {
    if (Wrong)
      R.WindowWrong += 1;
    if (R.WindowPosition == Config.EvictSampleCount - 1) {
      const double Right =
          1.0 - static_cast<double>(R.WindowWrong) /
                    static_cast<double>(Config.EvictSampleCount);
      if (Right < Config.EvictSampleBias) {
        evict(Site, R, InstRet);
        return;
      }
    }
  }
  R.WindowPosition += 1;
  if (R.WindowPosition == Config.EvictSampleWindow) {
    R.WindowPosition = 0;
    R.WindowWrong = 0;
  }
}

void FsmSpec::unbiased(SiteRecord &R) {
  if (R.Excluded || !Config.EnableRevisit)
    return;
  R.Waited += 1;
  if (R.Waited >= Config.WaitPeriod) {
    Stats.Revisits += 1;
    startMonitoring(R);
  }
}

void FsmSpec::evict(uint32_t Site, SiteRecord &R, uint64_t InstRet) {
  Stats.Evictions += 1;
  Stats.SiteEvictions[Site] += 1;
  Stats.RevokeRequests += 1;
  R.VicinityLeft = VicinityExecutions;
  R.VicinityAgainst = 0;
  R.VicinityTaken = R.SpeculatedTaken;
  requestChange(Site, R, /*Speculate=*/false, false, InstRet);
  startMonitoring(R);
}

void FsmSpec::requestChange(uint32_t Site, SiteRecord &R, bool Speculate,
                            bool Taken, uint64_t InstRet) {
  R.ChangeRequested = true;
  R.ChangeSpeculates = Speculate;
  R.ChangeTaken = Taken;
  if (!RequestSink) {
    R.ChangeLiveAt = InstRet + Config.OptLatency;
    return;
  }
  // Not live until the optimizer reports completion, which may happen
  // inside this call.
  R.ChangeLiveAt = std::numeric_limits<uint64_t>::max();
  RequestSink->onRequest({Speculate ? core::OptRequestKind::Deploy
                                    : core::OptRequestKind::Revoke,
                          Site, Taken});
}

void FsmSpec::completeRequest(uint32_t Site) {
  assert(RequestSink && Site < Sites.size() && Sites[Site].ChangeRequested &&
         "no outstanding request");
  Sites[Site].ChangeLiveAt = 0;
}

void FsmSpec::startMonitoring(SiteRecord &R) {
  R.State = Phase::Monitor;
  R.Executions = 0;
  R.Samples = 0;
  R.SampledTaken = 0;
}
