//===- examples/custom_policy.cpp - Writing your own controller -----------===//
//
// The SpeculationController interface is the library's extension point:
// implement onBranch/isDeployed/deployedDirection and your policy can run
// everywhere the paper's model runs (traces, the MSSP simulator, the
// report harnesses).
//
// This example implements a deliberately naive "hair-trigger" policy --
// speculate after 64 consistent outcomes, revoke on 4 consecutive
// misses, no latency modeling, no hysteresis, no oscillation cap -- and
// races it against the paper's model on the same workload.  The naive
// policy reacts faster but churns: watch its request count.
//
//===----------------------------------------------------------------------===//

#include "core/Driver.h"
#include "core/ReactiveController.h"
#include "support/Format.h"
#include "workload/SpecSuite.h"

#include <cstdio>
#include <stdexcept>
#include <vector>

using namespace specctrl;
using namespace specctrl::core;

namespace {

/// A minimal user-defined policy against the public interface.
class HairTriggerController : public SpeculationController {
public:
  BranchVerdict onBranch(SiteId Site, bool Taken,
                         uint64_t InstRet) override {
    Stats.touch(Site);
    ++Stats.Branches;
    Stats.LastInstRet = InstRet;
    if (Site >= States.size())
      States.resize(Site + 1);
    State &S = States[Site];

    BranchVerdict Verdict;
    if (S.Deployed) {
      Verdict.Speculated = true;
      Verdict.Correct = Taken == S.Direction;
      ++(Verdict.Correct ? Stats.CorrectSpecs : Stats.IncorrectSpecs);
      if (Verdict.Correct) {
        S.Misses = 0;
      } else if (++S.Misses >= 4) { // revoke on 4 consecutive misses
        S.Deployed = false;
        S.Streak = 0;
        S.Misses = 0;
        ++Stats.RevokeRequests;
        ++Stats.Evictions;
        ++Stats.SiteEvictions[Site];
      }
      return Verdict;
    }

    // Not deployed: count a streak of consistent outcomes.
    if (S.Streak == 0 || Taken == S.StreakDirection) {
      S.StreakDirection = Taken;
      ++S.Streak;
    } else {
      S.StreakDirection = Taken;
      S.Streak = 1;
    }
    if (S.Streak >= 64) { // deploy after 64 consistent outcomes
      S.Deployed = true;
      S.Direction = S.StreakDirection;
      S.Streak = 0;
      ++Stats.DeployRequests;
      Stats.EverBiased[Site] = 1;
    }
    return Verdict;
  }

  bool isDeployed(SiteId Site) const override {
    return Site < States.size() && States[Site].Deployed;
  }
  bool deployedDirection(SiteId Site) const override {
    return States[Site].Direction;
  }
  const ControlStats &stats() const override { return Stats; }
  ControlStats &stats() override { return Stats; }
  const char *name() const override { return "hair-trigger"; }

private:
  struct State {
    bool Deployed = false;
    bool Direction = false;
    bool StreakDirection = false;
    uint32_t Streak = 0;
    uint32_t Misses = 0;
  };
  std::vector<State> States;
  ControlStats Stats;
};

void report(const char *Name, const ControlStats &S) {
  std::printf("%-22s correct %6s  incorrect %8s  requests %6llu  "
              "evictions %5llu\n",
              Name, formatPercent(S.correctRate()).c_str(),
              formatPercent(S.incorrectRate(), 4).c_str(),
              static_cast<unsigned long long>(S.DeployRequests +
                                              S.RevokeRequests),
              static_cast<unsigned long long>(S.Evictions));
}

} // namespace

int main(int Argc, char **Argv) try {
  const char *Name = Argc > 1 ? Argv[1] : "mcf";
  workload::SuiteScale Scale;
  Scale.EventsPerBillion = 2e5;
  const workload::WorkloadSpec Spec = workload::makeBenchmark(Name, Scale);
  std::printf("policy shoot-out on %s (%s events)\n\n", Spec.Name.c_str(),
              formatMagnitude(static_cast<double>(Spec.RefEvents)).c_str());

  HairTriggerController Naive;
  runWorkload(Naive, Spec, Spec.refInput());
  report("hair-trigger", Naive.stats());

  ReactiveConfig Cfg; // Table 2
  Cfg.OptLatency = 10000;
  ReactiveController Paper(Cfg);
  runWorkload(Paper, Spec, Spec.refInput());
  report("paper reactive model", Paper.stats());

  std::printf("\nthe naive policy reacts instantly but re-optimizes "
              "constantly -- in a software\nspeculation system every "
              "request is a code regeneration, which is why the paper's\n"
              "model filters with a 10k monitor, a +50/-1 counter, and an "
              "oscillation cap.\n");
  return 0;
} catch (const std::invalid_argument &E) {
  std::fprintf(stderr, "error: %s\n", E.what());
  return 1;
}
