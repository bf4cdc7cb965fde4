//===- tests/workload/TraceGeneratorTest.cpp ------------------------------===//

#include "workload/TraceGenerator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

using namespace specctrl;
using namespace specctrl::workload;

namespace {

WorkloadSpec makeTinySpec() {
  WorkloadSpec Spec;
  Spec.Name = "tiny";
  Spec.Seed = 99;
  Spec.RefEvents = 50000;
  Spec.TrainEvents = 20000;
  Spec.NumPhases = 4;
  Spec.MinGap = 1;
  Spec.MaxGap = 8;
  SiteSpec Hot;
  Hot.Behavior = BehaviorSpec::fixed(0.999);
  Hot.Weight = 8.0;
  SiteSpec Cold;
  Cold.Behavior = BehaviorSpec::fixed(0.4);
  Cold.Weight = 1.0;
  SiteSpec Gated;
  Gated.Behavior = BehaviorSpec::fixed(0.95);
  Gated.Weight = 1.0;
  Gated.InputGated = true;
  SiteSpec Phased;
  Phased.Behavior = BehaviorSpec::fixed(0.5);
  Phased.Weight = 2.0;
  Phased.PhaseMask = 0x1; // first phase only
  Spec.Sites = {Hot, Cold, Gated, Phased};
  return Spec;
}

} // namespace

TEST(TraceGeneratorTest, GeneratesExactlyRunLength) {
  const WorkloadSpec Spec = makeTinySpec();
  TraceGenerator Gen(Spec, Spec.refInput());
  BranchEvent E;
  uint64_t Count = 0;
  while (Gen.next(E))
    ++Count;
  EXPECT_EQ(Count, Spec.RefEvents);
  EXPECT_EQ(Gen.eventsGenerated(), Spec.RefEvents);
  EXPECT_FALSE(Gen.next(E));
}

TEST(TraceGeneratorTest, DeterministicAcrossInstances) {
  const WorkloadSpec Spec = makeTinySpec();
  TraceGenerator A(Spec, Spec.refInput());
  TraceGenerator B(Spec, Spec.refInput());
  BranchEvent EA, EB;
  for (int I = 0; I < 5000; ++I) {
    ASSERT_TRUE(A.next(EA));
    ASSERT_TRUE(B.next(EB));
    ASSERT_EQ(EA.Site, EB.Site);
    ASSERT_EQ(EA.Taken, EB.Taken);
    ASSERT_EQ(EA.Gap, EB.Gap);
    ASSERT_EQ(EA.InstRet, EB.InstRet);
  }
}

TEST(TraceGeneratorTest, ResetReplaysIdentically) {
  const WorkloadSpec Spec = makeTinySpec();
  TraceGenerator Gen(Spec, Spec.refInput());
  std::vector<BranchEvent> First;
  BranchEvent E;
  for (int I = 0; I < 1000; ++I) {
    ASSERT_TRUE(Gen.next(E));
    First.push_back(E);
  }
  const std::vector<uint64_t> Counts = Gen.siteExecCounts();
  Gen.reset();
  EXPECT_EQ(Gen.eventsGenerated(), 0u);
  for (int I = 0; I < 1000; ++I) {
    ASSERT_TRUE(Gen.next(E));
    EXPECT_EQ(E, First[I]);
  }
  EXPECT_EQ(Gen.siteExecCounts(), Counts);
}

TEST(TraceGeneratorTest, WeightsShapeFrequencies) {
  const WorkloadSpec Spec = makeTinySpec();
  TraceGenerator Gen(Spec, Spec.refInput());
  BranchEvent E;
  while (Gen.next(E))
    ;
  const auto &Counts = Gen.siteExecCounts();
  // The hot site dominates the cold one roughly by weight ratio.
  EXPECT_GT(Counts[0], Counts[1] * 5);
}

TEST(TraceGeneratorTest, PhaseMaskConfinesSite) {
  const WorkloadSpec Spec = makeTinySpec();
  TraceGenerator Gen(Spec, Spec.refInput());
  BranchEvent E;
  uint64_t LastPhase0Event = 0;
  const uint64_t PhaseLen = Spec.RefEvents / Spec.NumPhases;
  for (uint64_t Position = 0; Gen.next(E); ++Position)
    if (E.Site == 3)
      LastPhase0Event = Position;
  // Site 3 is restricted to phase 0.
  EXPECT_LT(LastPhase0Event, PhaseLen);
  EXPECT_GT(Gen.siteExecCounts()[3], 0u);
}

TEST(TraceGeneratorTest, GapsWithinConfiguredRange) {
  const WorkloadSpec Spec = makeTinySpec();
  TraceGenerator Gen(Spec, Spec.refInput());
  BranchEvent E;
  uint64_t PrevInstRet = 0;
  double GapSum = 0;
  uint64_t N = 0;
  while (Gen.next(E)) {
    ASSERT_GE(E.Gap, Spec.MinGap);
    ASSERT_LE(E.Gap, Spec.MaxGap);
    ASSERT_EQ(E.InstRet, PrevInstRet + E.Gap + 1);
    PrevInstRet = E.InstRet;
    GapSum += E.Gap;
    ++N;
  }
  EXPECT_NEAR(GapSum / static_cast<double>(N),
              (Spec.MinGap + Spec.MaxGap) / 2.0, 0.1);
}

TEST(TraceGeneratorTest, TrainInputDiffersButIsDeterministic) {
  const WorkloadSpec Spec = makeTinySpec();
  const InputConfig Train = Spec.trainInput();
  EXPECT_EQ(Train.Events, Spec.TrainEvents);
  EXPECT_NE(Train.Seed, Spec.refInput().Seed);
  TraceGenerator A(Spec, Train), B(Spec, Train);
  BranchEvent EA, EB;
  for (int I = 0; I < 1000; ++I) {
    ASSERT_TRUE(A.next(EA));
    ASSERT_TRUE(B.next(EB));
    ASSERT_EQ(EA.Site, EB.Site);
    ASSERT_EQ(EA.Taken, EB.Taken);
  }
}

TEST(TraceGeneratorTest, ExpectedExecsTrackEmpirical) {
  const WorkloadSpec Spec = makeTinySpec();
  const InputConfig Ref = Spec.refInput();
  const std::vector<double> Expected = Spec.expectedSiteExecs(Ref);
  TraceGenerator Gen(Spec, Ref);
  BranchEvent E;
  while (Gen.next(E))
    ;
  const auto &Counts = Gen.siteExecCounts();
  for (SiteId S = 0; S < Spec.numSites(); ++S) {
    if (Expected[S] < 100)
      continue;
    EXPECT_NEAR(static_cast<double>(Counts[S]) / Expected[S], 1.0, 0.15)
        << "site " << S;
  }
}

namespace {

/// Requires \p Spec to fail validate() with a message containing \p Rule,
/// and TraceGenerator's constructor to throw that message.
void expectRejected(const WorkloadSpec &Spec, const std::string &Rule) {
  const std::string Violation = Spec.validate();
  EXPECT_NE(Violation.find(Rule), std::string::npos) << Violation;
  try {
    TraceGenerator Gen(Spec, Spec.refInput());
    ADD_FAILURE() << "generator accepted a spec that breaks: " << Rule;
  } catch (const std::invalid_argument &E) {
    EXPECT_NE(std::string(E.what()).find(Violation), std::string::npos)
        << E.what();
  }
}

} // namespace

TEST(TraceGeneratorTest, RejectsSpecWithoutSites) {
  WorkloadSpec Spec = makeTinySpec();
  Spec.Sites.clear();
  expectRejected(Spec, "no branch sites");
}

TEST(TraceGeneratorTest, RejectsPhaseCountOutsideOneToSixteen) {
  for (const unsigned Phases : {0u, 17u}) {
    WorkloadSpec Spec = makeTinySpec();
    Spec.NumPhases = Phases;
    expectRejected(Spec, "phase count " + std::to_string(Phases));
  }
}

TEST(TraceGeneratorTest, RejectsGapRangeOutOfOrder) {
  WorkloadSpec ZeroMin = makeTinySpec();
  ZeroMin.MinGap = 0;
  expectRejected(ZeroMin, "needs 1 <= MinGap <= MaxGap");
  WorkloadSpec Inverted = makeTinySpec();
  Inverted.MinGap = 9;
  Inverted.MaxGap = 8;
  expectRejected(Inverted, "needs 1 <= MinGap <= MaxGap");
}

TEST(TraceGeneratorTest, RejectsGapBeyondSixteenBits) {
  WorkloadSpec Spec = makeTinySpec();
  Spec.MaxGap = 65536;
  expectRejected(Spec, "MaxGap 65536 exceeds 65535");
}

TEST(TraceGeneratorTest, RejectsZeroPeriod) {
  // Each of these kinds divides by its period; unchecked, a Periodic site
  // with period 0 raises SIGFPE in a build without asserts.
  for (const BehaviorSpec &B :
       {BehaviorSpec::soften(0.99, 0.6, 10, 0),
        BehaviorSpec::periodic(0.99, 0.01, 0),
        BehaviorSpec::randomWalk(0.5, 0)}) {
    WorkloadSpec Spec = makeTinySpec();
    Spec.Sites[1].Behavior = B;
    expectRejected(Spec, std::string("site 1 (") + behaviorKindName(B.Kind) +
                             ") has period 0");
  }
}

TEST(TraceGeneratorTest, GeneratesAtMaxGap65535) {
  WorkloadSpec Spec = makeTinySpec();
  Spec.MinGap = 65000;
  Spec.MaxGap = 65535;
  ASSERT_EQ(Spec.validate(), "");
  TraceGenerator Gen(Spec, Spec.refInput());
  BranchEvent E;
  uint64_t PrevInstRet = 0;
  uint32_t Widest = 0;
  while (Gen.next(E)) {
    ASSERT_GE(E.Gap, Spec.MinGap);
    ASSERT_EQ(E.InstRet, PrevInstRet + E.Gap + 1);
    PrevInstRet = E.InstRet;
    Widest = std::max<uint32_t>(Widest, E.Gap);
  }
  EXPECT_EQ(Gen.eventsGenerated(), Spec.RefEvents);
  EXPECT_GT(Widest, 65500u); // the top of the range is reached, untruncated
}
