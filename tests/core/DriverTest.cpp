//===- tests/core/DriverTest.cpp ------------------------------------------===//

#include "core/Driver.h"

#include "core/ReactiveController.h"
#include "workload/TraceFile.h"
#include "workload/TraceGenerator.h"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

using namespace specctrl;
using namespace specctrl::core;
using namespace specctrl::workload;

namespace {

WorkloadSpec twoSiteSpec() {
  WorkloadSpec Spec;
  Spec.Name = "drv";
  Spec.Seed = 5;
  Spec.RefEvents = 100000;
  Spec.NumPhases = 1;
  SiteSpec Biased;
  Biased.Behavior = BehaviorSpec::fixed(0.9995);
  Biased.Weight = 3.0;
  SiteSpec Noise;
  Noise.Behavior = BehaviorSpec::fixed(0.5);
  Noise.Weight = 1.0;
  Spec.Sites = {Biased, Noise};
  return Spec;
}

} // namespace

TEST(DriverTest, RunsWholeTrace) {
  const WorkloadSpec Spec = twoSiteSpec();
  ReactiveConfig Cfg;
  Cfg.MonitorPeriod = 1000;
  Cfg.OptLatency = 0;
  ReactiveController C(Cfg);
  const ControlStats &S = runWorkload(C, Spec, Spec.refInput());
  EXPECT_EQ(S.Branches, Spec.RefEvents);
  EXPECT_EQ(S.touchedCount(), 2u);
  // The biased site gets selected and speculated at ~75% of events.
  EXPECT_GT(S.correctRate(), 0.5);
  EXPECT_LT(S.incorrectRate(), 0.01);
}

TEST(DriverTest, PartiallyConsumedGeneratorFinishes) {
  const WorkloadSpec Spec = twoSiteSpec();
  workload::TraceGenerator Gen(Spec, Spec.refInput());
  BranchEvent E;
  for (int I = 0; I < 1000; ++I)
    ASSERT_TRUE(Gen.next(E));
  ReactiveController C(ReactiveConfig{});
  const ControlStats &S = runTrace(C, Gen);
  EXPECT_EQ(S.Branches, Spec.RefEvents - 1000);
}

TEST(DriverTest, CollectProfileCountsEveryOutcome) {
  const WorkloadSpec Spec = twoSiteSpec();
  profile::BranchProfile Want(Spec.numSites());
  {
    TraceGenerator Gen(Spec, Spec.refInput());
    BranchEvent E;
    while (Gen.next(E))
      Want.addOutcome(E.Site, E.Taken);
  }
  TraceGenerator Gen(Spec, Spec.refInput());
  const profile::BranchProfile Got = collectProfile(Gen, Spec.numSites());
  EXPECT_EQ(Got.totalExecutions(), Spec.RefEvents);
  for (SiteId S = 0; S < Spec.numSites(); ++S) {
    EXPECT_EQ(Got.taken(S), Want.taken(S)) << "site " << S;
    EXPECT_EQ(Got.notTaken(S), Want.notTaken(S)) << "site " << S;
  }
}

TEST(DriverTest, MetricsCountEventsAndChunks) {
  const WorkloadSpec Spec = twoSiteSpec();
  for (const size_t Batch : {size_t{4096}, size_t{1}}) {
    ReactiveController C(ReactiveConfig{});
    const ControlStats &S = runWorkload(C, Spec, Spec.refInput(), Batch);
    EXPECT_EQ(S.EventsConsumed, Spec.RefEvents) << "batch=" << Batch;
  }
}

TEST(DriverTest, ResidentTraceReplayMatchesGenerator) {
  const WorkloadSpec Spec = twoSiteSpec();
  std::ostringstream Bytes;
  {
    TraceGenerator Gen(Spec, Spec.refInput());
    ASSERT_GT(writeTraceV2(Bytes, Gen), 0u);
  }

  ReactiveConfig Cfg;
  Cfg.MonitorPeriod = 1000;
  Cfg.OptLatency = 0;
  ReactiveController Reference(Cfg);
  const ControlStats Want = runWorkload(Reference, Spec, Spec.refInput());

  // A resident copy of the recorded bytes reproduces the generator's
  // stats exactly.
  const std::string Image = Bytes.str();
  TraceCursor Cursor(
      MaterializedTrace::fromBytes({Image.begin(), Image.end()}));
  ReactiveController C(Cfg);
  EXPECT_EQ(runTrace(C, Cursor), Want);
  EXPECT_FALSE(Cursor.failed()) << Cursor.error();
}
