//===- tests/core/ReactiveControllerTest.cpp ------------------------------===//
//
// FSM-level tests of the paper's reactive control model: every arc of
// Fig. 4(b), the Table 2 hysteresis, latency modeling, the oscillation
// cap, and the sampling variants.
//
//===----------------------------------------------------------------------===//

#include "core/ReactiveController.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

using namespace specctrl;
using namespace specctrl::core;

namespace {

/// Feeds \p Count outcomes of one site, advancing instret by 5 per branch.
/// Returns the number of misspeculated executions reported.
uint64_t feed(ReactiveController &C, SiteId Site, bool Taken, uint64_t Count,
              uint64_t &InstRet) {
  uint64_t Wrong = 0;
  for (uint64_t I = 0; I < Count; ++I) {
    InstRet += 5;
    const BranchVerdict V = C.onBranch(Site, Taken, InstRet);
    Wrong += V.Speculated && !V.Correct;
  }
  return Wrong;
}

ReactiveConfig fastConfig() {
  ReactiveConfig C;
  C.MonitorPeriod = 1000;
  C.WaitPeriod = 10000;
  C.OptLatency = 0;
  return C;
}

} // namespace

TEST(ReactiveControllerTest, MonitorClassifiesBiased) {
  ReactiveController C(fastConfig());
  uint64_t InstRet = 0;
  feed(C, 0, true, 999, InstRet);
  EXPECT_EQ(C.fsmState(0), ReactiveController::FsmState::Monitor);
  EXPECT_FALSE(C.isDeployed(0));
  feed(C, 0, true, 1, InstRet);
  EXPECT_EQ(C.fsmState(0), ReactiveController::FsmState::Biased);
  EXPECT_TRUE(C.isDeployed(0)); // zero latency
  EXPECT_TRUE(C.deployedDirection(0));
  EXPECT_EQ(C.stats().DeployRequests, 1u);
  EXPECT_EQ(C.stats().everBiasedCount(), 1u);
}

TEST(ReactiveControllerTest, MonitorClassifiesUnbiased) {
  ReactiveController C(fastConfig());
  uint64_t InstRet = 0;
  for (uint64_t I = 0; I < 1000; ++I) {
    InstRet += 5;
    C.onBranch(0, I % 2 == 0, InstRet);
  }
  EXPECT_EQ(C.fsmState(0), ReactiveController::FsmState::Unbiased);
  EXPECT_FALSE(C.isDeployed(0));
  EXPECT_EQ(C.stats().DeployRequests, 0u);
}

TEST(ReactiveControllerTest, SelectionThresholdRespected) {
  // 99.0% bias must NOT pass the 99.5% selection threshold.
  ReactiveConfig Cfg = fastConfig();
  Cfg.MonitorPeriod = 10000;
  ReactiveController C(Cfg);
  uint64_t InstRet = 0;
  for (uint64_t I = 0; I < 10000; ++I) {
    InstRet += 5;
    C.onBranch(0, I % 100 != 0, InstRet); // exactly 99.0%
  }
  EXPECT_EQ(C.fsmState(0), ReactiveController::FsmState::Unbiased);

  // 99.8% passes.
  ReactiveController D(Cfg);
  InstRet = 0;
  for (uint64_t I = 0; I < 10000; ++I) {
    InstRet += 5;
    D.onBranch(0, I % 500 != 0, InstRet); // 99.8%
  }
  EXPECT_EQ(D.fsmState(0), ReactiveController::FsmState::Biased);
}

TEST(ReactiveControllerTest, OptimizationLatencyDefersDeployment) {
  ReactiveConfig Cfg = fastConfig();
  Cfg.OptLatency = 100000;
  ReactiveController C(Cfg);
  uint64_t InstRet = 0;
  feed(C, 0, true, 1000, InstRet); // classified at InstRet = 5000
  EXPECT_EQ(C.fsmState(0), ReactiveController::FsmState::Biased);
  EXPECT_FALSE(C.isDeployed(0));
  // Not deployed until 100k instructions later.
  feed(C, 0, true, 1000, InstRet); // InstRet = 10000
  EXPECT_FALSE(C.isDeployed(0));
  while (InstRet < 5000 + 100000)
    feed(C, 0, true, 1, InstRet);
  feed(C, 0, true, 1, InstRet);
  EXPECT_TRUE(C.isDeployed(0));
  // Speculation accounting starts only at deployment: the execution that
  // crossed the ready point plus the one afterwards.
  EXPECT_EQ(C.stats().CorrectSpecs, 2u);
}

TEST(ReactiveControllerTest, EvictionAfterSaturation) {
  ReactiveController C(fastConfig());
  uint64_t InstRet = 0;
  feed(C, 0, true, 1000, InstRet);
  ASSERT_TRUE(C.isDeployed(0));
  // Pure misspeculation: +50 each, saturates at 10,000 -> 200 misspecs.
  const uint64_t Wrong = feed(C, 0, false, 200, InstRet);
  EXPECT_EQ(Wrong, 200u);
  EXPECT_EQ(C.fsmState(0), ReactiveController::FsmState::Monitor);
  EXPECT_EQ(C.stats().Evictions, 1u);
  EXPECT_EQ(C.stats().RevokeRequests, 1u);
  EXPECT_EQ(C.stats().evictedSiteCount(), 1u);
  // Zero latency: revoke applied immediately.
  EXPECT_FALSE(C.isDeployed(0));
}

TEST(ReactiveControllerTest, HysteresisToleratesBursts) {
  // A burst of 150 misspeculations (7500 counter) followed by enough
  // correct runs must NOT evict (paper Sec. 3.1 item 2).
  ReactiveController C(fastConfig());
  uint64_t InstRet = 0;
  feed(C, 0, true, 1000, InstRet);
  ASSERT_TRUE(C.isDeployed(0));
  feed(C, 0, false, 150, InstRet);
  EXPECT_EQ(C.fsmState(0), ReactiveController::FsmState::Biased);
  feed(C, 0, true, 8000, InstRet); // drain the counter
  feed(C, 0, false, 150, InstRet); // second burst
  EXPECT_EQ(C.fsmState(0), ReactiveController::FsmState::Biased);
  EXPECT_EQ(C.stats().Evictions, 0u);
}

TEST(ReactiveControllerTest, NoEvictionConfigNeverEvicts) {
  ReactiveController C(ReactiveConfig::noEviction(), "open-loop");
  ReactiveConfig Fast = fastConfig();
  Fast.EnableEviction = false;
  ReactiveController D(Fast);
  uint64_t InstRet = 0;
  feed(D, 0, true, 1000, InstRet);
  ASSERT_TRUE(D.isDeployed(0));
  const uint64_t Wrong = feed(D, 0, false, 5000, InstRet);
  EXPECT_EQ(Wrong, 5000u);
  EXPECT_EQ(D.fsmState(0), ReactiveController::FsmState::Biased);
  EXPECT_EQ(D.stats().Evictions, 0u);
  EXPECT_TRUE(D.isDeployed(0));
}

TEST(ReactiveControllerTest, RevisitReturnsToMonitor) {
  ReactiveConfig Cfg = fastConfig();
  ReactiveController C(Cfg);
  uint64_t InstRet = 0;
  for (uint64_t I = 0; I < 1000; ++I) {
    InstRet += 5;
    C.onBranch(0, I % 2 == 0, InstRet);
  }
  ASSERT_EQ(C.fsmState(0), ReactiveController::FsmState::Unbiased);
  // After the wait period the site is re-monitored; if it became biased,
  // it is selected this time.
  feed(C, 0, true, Cfg.WaitPeriod, InstRet);
  EXPECT_EQ(C.fsmState(0), ReactiveController::FsmState::Monitor);
  EXPECT_EQ(C.stats().Revisits, 1u);
  feed(C, 0, true, Cfg.MonitorPeriod, InstRet);
  EXPECT_EQ(C.fsmState(0), ReactiveController::FsmState::Biased);
}

TEST(ReactiveControllerTest, NoRevisitConfigStaysUnbiased) {
  ReactiveConfig Cfg = fastConfig();
  Cfg.EnableRevisit = false;
  ReactiveController C(Cfg);
  uint64_t InstRet = 0;
  for (uint64_t I = 0; I < 1000; ++I) {
    InstRet += 5;
    C.onBranch(0, I % 2 == 0, InstRet);
  }
  ASSERT_EQ(C.fsmState(0), ReactiveController::FsmState::Unbiased);
  feed(C, 0, true, 10 * Cfg.WaitPeriod, InstRet);
  EXPECT_EQ(C.fsmState(0), ReactiveController::FsmState::Unbiased);
  EXPECT_EQ(C.stats().Revisits, 0u);
}

TEST(ReactiveControllerTest, OscillationCapBlacklists) {
  ReactiveConfig Cfg = fastConfig();
  Cfg.WaitPeriod = 1000;
  Cfg.OscillationLimit = 3;
  ReactiveController C(Cfg);
  uint64_t InstRet = 0;
  // Oscillate: a clean biased monitor window (deploy), then exactly the
  // 200 misspeculations that saturate the +50 counter (evict), repeated.
  for (int Cycle = 0; Cycle < 6; ++Cycle) {
    feed(C, 0, true, Cfg.MonitorPeriod, InstRet);
    feed(C, 0, false, 200, InstRet);
    // Drain the partial monitor window the eviction tail started.
    feed(C, 0, true, Cfg.MonitorPeriod, InstRet);
  }
  EXPECT_TRUE(C.isOscillationCapped(0));
  EXPECT_EQ(C.stats().DeployRequests, 3u);
  EXPECT_GE(C.stats().SuppressedRequests, 1u);
  EXPECT_FALSE(C.isDeployed(0));
}

TEST(ReactiveControllerTest, MonitorSamplingStillClassifies) {
  ReactiveConfig Cfg = fastConfig();
  Cfg.MonitorSampleRate = 8;
  Cfg.MonitorPeriod = 8000; // 1000 samples
  ReactiveController C(Cfg);
  uint64_t InstRet = 0;
  feed(C, 0, true, 8000, InstRet);
  EXPECT_EQ(C.fsmState(0), ReactiveController::FsmState::Biased);
}

TEST(ReactiveControllerTest, EvictionBySampling) {
  ReactiveConfig Cfg = fastConfig();
  Cfg.EvictBySampling = true;
  Cfg.EvictSampleWindow = 1000;
  Cfg.EvictSampleCount = 100;
  Cfg.EvictSampleBias = 0.98;
  ReactiveController C(Cfg);
  uint64_t InstRet = 0;
  feed(C, 0, true, 1000, InstRet);
  ASSERT_TRUE(C.isDeployed(0));
  // Healthy windows don't evict.
  feed(C, 0, true, 3000, InstRet);
  EXPECT_EQ(C.fsmState(0), ReactiveController::FsmState::Biased);
  // A sick window does: the sampled prefix of the next window is all
  // wrong.
  feed(C, 0, false, 100, InstRet);
  EXPECT_EQ(C.fsmState(0), ReactiveController::FsmState::Monitor);
  EXPECT_EQ(C.stats().Evictions, 1u);
}

TEST(ReactiveControllerTest, ExternalSinkReceivesRequests) {
  class Sink : public OptRequestSink {
  public:
    std::vector<OptRequest> Requests;
    void onRequest(const OptRequest &R) override { Requests.push_back(R); }
  };

  Sink S;
  ReactiveController C(fastConfig());
  C.setRequestSink(&S);
  uint64_t InstRet = 0;
  feed(C, 0, true, 1000, InstRet);
  ASSERT_EQ(S.Requests.size(), 1u);
  EXPECT_EQ(S.Requests[0].Kind, OptRequestKind::Deploy);
  EXPECT_TRUE(S.Requests[0].Direction);
  EXPECT_TRUE(C.hasPendingRequest(0));
  EXPECT_FALSE(C.isDeployed(0));
  C.completeRequest(0);
  EXPECT_TRUE(C.isDeployed(0));
  EXPECT_FALSE(C.hasPendingRequest(0));

  // Drive an eviction; the revoke must surface too.
  feed(C, 0, false, 200, InstRet);
  ASSERT_EQ(S.Requests.size(), 2u);
  EXPECT_EQ(S.Requests[1].Kind, OptRequestKind::Revoke);
  EXPECT_TRUE(C.isDeployed(0)); // still deployed until completion
  C.completeRequest(0);
  EXPECT_FALSE(C.isDeployed(0));
}

TEST(ReactiveControllerTest, MisspecsCountedDuringRevokeLatency) {
  // Paper Sec. 3.1: after eviction, speculations continue to be counted
  // until the repaired code deploys.
  ReactiveConfig Cfg = fastConfig();
  Cfg.OptLatency = 50000;
  ReactiveController C(Cfg);
  uint64_t InstRet = 0;
  feed(C, 0, true, 1000, InstRet);
  while (!C.isDeployed(0))
    feed(C, 0, true, 1, InstRet);
  feed(C, 0, false, 200, InstRet); // evict (revoke pending)
  ASSERT_EQ(C.stats().Evictions, 1u);
  ASSERT_TRUE(C.isDeployed(0));
  const uint64_t Before = C.stats().IncorrectSpecs;
  feed(C, 0, false, 100, InstRet); // still old code: counted
  EXPECT_EQ(C.stats().IncorrectSpecs, Before + 100);
}

TEST(ReactiveControllerTest, TransitionRecordsCaptureReversal) {
  ReactiveController C(fastConfig());
  uint64_t InstRet = 0;
  feed(C, 0, true, 1000, InstRet);
  feed(C, 0, false, 200, InstRet); // evict
  feed(C, 0, false, 64, InstRet);  // transition vicinity: all reversed
  const auto &Trans = C.stats().Transitions;
  ASSERT_EQ(Trans.size(), 1u);
  EXPECT_EQ(Trans[0].Site, 0u);
  EXPECT_EQ(Trans[0].Observed, 64u);
  EXPECT_EQ(Trans[0].AgainstOriginal, 64u);
}

TEST(ReactiveControllerTest, PerSiteIndependence) {
  ReactiveController C(fastConfig());
  uint64_t InstRet = 0;
  // Interleave a biased and an unbiased site.
  for (uint64_t I = 0; I < 2000; ++I) {
    InstRet += 5;
    C.onBranch(0, true, InstRet);
    InstRet += 5;
    C.onBranch(1, I % 2 == 0, InstRet);
  }
  EXPECT_EQ(C.fsmState(0), ReactiveController::FsmState::Biased);
  EXPECT_EQ(C.fsmState(1), ReactiveController::FsmState::Unbiased);
  EXPECT_EQ(C.stats().touchedCount(), 2u);
  EXPECT_EQ(C.stats().everBiasedCount(), 1u);
}

TEST(ReactiveControllerTest, StatsConservation) {
  ReactiveController C(fastConfig());
  uint64_t InstRet = 0;
  feed(C, 0, true, 5000, InstRet);
  feed(C, 0, false, 100, InstRet);
  feed(C, 0, true, 1000, InstRet);
  const ControlStats &S = C.stats();
  EXPECT_EQ(S.Branches, 6100u);
  // Speculated executions = correct + incorrect <= branches.
  EXPECT_LE(S.CorrectSpecs + S.IncorrectSpecs, S.Branches);
  EXPECT_EQ(S.LastInstRet, InstRet);
}

TEST(ReactiveControllerTest, InvalidConfigThrowsInEveryBuild) {
  // One invalid field at a time; each must be rejected by the
  // constructor.
  std::vector<ReactiveConfig> Invalid;
  auto With = [&Invalid](auto Mutate) {
    ReactiveConfig C = fastConfig();
    Mutate(C);
    Invalid.push_back(C);
  };
  With([](ReactiveConfig &C) { C.MonitorPeriod = 0; });
  With([](ReactiveConfig &C) { C.SelectThreshold = 0.5; });
  With([](ReactiveConfig &C) { C.SelectThreshold = 1.01; });
  With([](ReactiveConfig &C) { C.MonitorSampleRate = 0; });
  With([](ReactiveConfig &C) {
    C.EvictBySampling = true;
    C.EvictSampleCount = C.EvictSampleWindow + 1;
  });

  for (size_t I = 0; I < Invalid.size(); ++I)
    EXPECT_THROW(ReactiveController{Invalid[I]}, std::invalid_argument)
        << "constructor accepted invalid config " << I;
}
