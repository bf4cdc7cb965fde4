//===- tests/core/AlternativeControllersTest.cpp --------------------------===//

#include "core/AlternativeControllers.h"

#include "core/Driver.h"
#include "core/ReactiveController.h"
#include "workload/TraceGenerator.h"

#include <gtest/gtest.h>

#include <stdexcept>

using namespace specctrl;
using namespace specctrl::core;

namespace {

ReactiveConfig fastConfig() {
  ReactiveConfig C;
  C.MonitorPeriod = 1000;
  C.WaitPeriod = 10000;
  C.OptLatency = 0;
  return C;
}

void feed(SpeculationController &C, SiteId Site, bool Taken, uint64_t Count,
          uint64_t &InstRet) {
  for (uint64_t I = 0; I < Count; ++I)
    C.onBranch(Site, Taken, InstRet += 5);
}

} // namespace

TEST(DynamoFlushTest, ClassifiesOnceAndDeploys) {
  DynamoFlushController C(fastConfig(), /*FlushInterval=*/1u << 30);
  uint64_t InstRet = 0;
  feed(C, 0, true, 1000, InstRet);
  EXPECT_TRUE(C.isDeployed(0));
  EXPECT_TRUE(C.deployedDirection(0));
  EXPECT_EQ(C.flushes(), 0u);
}

TEST(DynamoFlushTest, RejectsZeroFlushInterval) {
  EXPECT_THROW(DynamoFlushController(fastConfig(), 0), std::invalid_argument);
}

TEST(DynamoFlushTest, NoPerSiteFeedback) {
  // Between flushes the policy is open loop: a reversed site keeps
  // misspeculating.
  DynamoFlushController C(fastConfig(), 1u << 30);
  uint64_t InstRet = 0;
  feed(C, 0, true, 1000, InstRet);
  ASSERT_TRUE(C.isDeployed(0));
  feed(C, 0, false, 3000, InstRet);
  EXPECT_TRUE(C.isDeployed(0)); // still deployed, still wrong
  EXPECT_EQ(C.stats().IncorrectSpecs, 3000u);
}

TEST(DynamoFlushTest, FlushRevokesAndRelearns) {
  DynamoFlushController C(fastConfig(), /*FlushInterval=*/20000);
  uint64_t InstRet = 0;
  feed(C, 0, true, 1000, InstRet); // InstRet = 5000, deployed taken
  ASSERT_TRUE(C.isDeployed(0));
  // The site reverses; the flush at 20k instructions drops the stale
  // fragment and the next monitor learns the new direction.
  feed(C, 0, false, 3000, InstRet); // crosses the flush boundary
  EXPECT_GE(C.flushes(), 1u);
  feed(C, 0, false, 1000, InstRet); // enough post-flush monitoring
  EXPECT_TRUE(C.isDeployed(0));
  EXPECT_FALSE(C.deployedDirection(0)); // relearned
}

TEST(DynamoFlushTest, SitsBetweenOpenAndClosedLoop) {
  // The paper's Sec. 5 prediction, as a property over a changing
  // workload.
  using namespace specctrl::workload;
  WorkloadSpec Spec;
  Spec.Name = "dyn";
  Spec.Seed = 77;
  Spec.RefEvents = 500000;
  Spec.NumPhases = 1;
  auto Add = [&Spec](BehaviorSpec B, double W) {
    SiteSpec S;
    S.Behavior = B;
    S.Weight = W;
    Spec.Sites.push_back(S);
  };
  Add(BehaviorSpec::fixed(0.9995), 6);
  Add(BehaviorSpec::fixed(0.0005), 6);
  Add(BehaviorSpec::flipAt(0.9995, 0.005, 40000), 4);
  Add(BehaviorSpec::periodic(0.998, 0.002, 30000), 4);
  Add(BehaviorSpec::fixed(0.5), 4);

  ReactiveConfig Closed = fastConfig();
  ReactiveConfig Open = fastConfig();
  Open.EnableEviction = false;
  Open.EnableRevisit = false;

  ReactiveController ClosedC(Closed);
  ReactiveController OpenC(Open, "open");
  DynamoFlushController FlushC(fastConfig(), /*FlushInterval=*/300000);

  const double ClosedRate =
      runWorkload(ClosedC, Spec, Spec.refInput()).incorrectRate();
  const double OpenRate =
      runWorkload(OpenC, Spec, Spec.refInput()).incorrectRate();
  const double FlushRate =
      runWorkload(FlushC, Spec, Spec.refInput()).incorrectRate();

  EXPECT_LT(ClosedRate, FlushRate);
  EXPECT_LT(FlushRate, OpenRate);
}

TEST(HardwareCounterTest, LearnsAndAdaptsPerInstance) {
  HardwareCounterController C;
  uint64_t InstRet = 0;
  feed(C, 0, true, 100, InstRet);
  EXPECT_TRUE(C.isDeployed(0));
  EXPECT_TRUE(C.deployedDirection(0));
  const uint64_t WrongBefore = C.stats().IncorrectSpecs;
  // Reversal: a hardware counter adapts within a few instances.
  feed(C, 0, false, 100, InstRet);
  const uint64_t WrongDelta = C.stats().IncorrectSpecs - WrongBefore;
  EXPECT_LE(WrongDelta, 4u);
  EXPECT_FALSE(C.deployedDirection(0));
}

TEST(HardwareCounterTest, UnbiasedSiteRarelyConfident) {
  HardwareCounterController C;
  uint64_t InstRet = 0;
  for (int I = 0; I < 10000; ++I)
    C.onBranch(0, I % 2 == 0, InstRet += 5);
  // Strict alternation keeps the counter in the weak states mostly.
  const ControlStats &S = C.stats();
  EXPECT_LT(S.CorrectSpecs + S.IncorrectSpecs, 5100u);
}

TEST(HardwareCounterTest, NeverRequestsCodeChanges) {
  HardwareCounterController C;
  uint64_t InstRet = 0;
  feed(C, 0, true, 10000, InstRet);
  feed(C, 0, false, 10000, InstRet);
  EXPECT_EQ(C.stats().DeployRequests, 0u);
  EXPECT_EQ(C.stats().RevokeRequests, 0u);
}
