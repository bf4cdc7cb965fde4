//===- tests/integration/SuiteInvariantsTest.cpp --------------------------===//
//
// Whole-suite invariants at reduced scale: every one of the twelve
// calibrated benchmarks must satisfy the structural properties the
// paper's data exhibits, for any benchmark (TEST_P across the suite).
//
//===----------------------------------------------------------------------===//

#include "core/Driver.h"
#include "core/ReactiveController.h"
#include "profile/Pareto.h"
#include "workload/SpecSuite.h"
#include "workload/TraceGenerator.h"

#include <gtest/gtest.h>

using namespace specctrl;
using namespace specctrl::core;
using namespace specctrl::workload;

namespace {

SuiteScale reducedScale() {
  SuiteScale S;
  S.EventsPerBillion = 1.2e5; // 1/5 of the default run lengths
  S.SiteScale = 0.1;
  return S;
}

ReactiveConfig reducedConfig() {
  ReactiveConfig C;
  C.MonitorPeriod = 2000;
  C.WaitPeriod = 20000;
  C.OptLatency = 4000;
  return C;
}

class SuiteInvariants : public ::testing::TestWithParam<const char *> {};

} // namespace

TEST_P(SuiteInvariants, ReactiveRunSatisfiesPaperShape) {
  const WorkloadSpec Spec = makeBenchmark(GetParam(), reducedScale());
  ReactiveController C(reducedConfig());
  const ControlStats &S = runWorkload(C, Spec, Spec.refInput());

  // Every event seen exactly once.
  EXPECT_EQ(S.Branches, Spec.RefEvents);

  // A meaningful share of dynamic branches is speculated correctly...
  EXPECT_GT(S.correctRate(), 0.10) << GetParam();
  // ...with misspeculation orders of magnitude lower.
  EXPECT_LT(S.incorrectRate(), S.correctRate() / 20) << GetParam();

  // A minority of statics is classified biased; evictions touch only a
  // small fraction (paper: 34% / ~2%).
  const double BiasFrac =
      static_cast<double>(S.everBiasedCount()) / S.touchedCount();
  EXPECT_GT(BiasFrac, 0.05) << GetParam();
  EXPECT_LT(BiasFrac, 0.75) << GetParam();
  EXPECT_LE(S.evictedSiteCount(), S.everBiasedCount()) << GetParam();

  // Accounting invariants.
  EXPECT_LE(S.CorrectSpecs + S.IncorrectSpecs, S.Branches);
  EXPECT_EQ(S.Evictions, S.RevokeRequests);
  EXPECT_LE(S.RevokeRequests, S.DeployRequests);
}

TEST_P(SuiteInvariants, ReactiveTracksSelfTraining) {
  const WorkloadSpec Spec = makeBenchmark(GetParam(), reducedScale());

  TraceGenerator Gen(Spec, Spec.refInput());
  const profile::BranchProfile P = collectProfile(Gen, Spec.numSites());
  const profile::SelectionResult Self =
      profile::evaluateSelection(P, P, 0.99);

  ReactiveController C(reducedConfig());
  const ControlStats &S = runWorkload(C, Spec, Spec.refInput());

  // Fig. 5's claim: within striking distance of self-training at every
  // benchmark (loose bands at this reduced scale).
  EXPECT_GT(S.correctRate(), Self.Correct * 0.55) << GetParam();
  EXPECT_LT(S.correctRate(), Self.Correct * 1.6 + 0.05) << GetParam();
}

TEST_P(SuiteInvariants, OpenLoopAlwaysWorseOnMisspeculation) {
  const WorkloadSpec Spec = makeBenchmark(GetParam(), reducedScale());
  ReactiveController Closed(reducedConfig());
  const double ClosedRate =
      runWorkload(Closed, Spec, Spec.refInput()).incorrectRate();

  ReactiveConfig OpenCfg = reducedConfig();
  OpenCfg.EnableEviction = false;
  ReactiveController Open(OpenCfg);
  const double OpenRate =
      runWorkload(Open, Spec, Spec.refInput()).incorrectRate();

  EXPECT_GE(OpenRate, ClosedRate * 0.999) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, SuiteInvariants,
                         ::testing::Values("bzip2", "crafty", "eon", "gap",
                                           "gcc", "gzip", "mcf", "parser",
                                           "perl", "twolf", "vortex",
                                           "vpr"),
                         [](const ::testing::TestParamInfo<const char *>
                                &Info) { return Info.param; });
