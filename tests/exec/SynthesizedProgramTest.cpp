//===- tests/exec/SynthesizedProgramTest.cpp ------------------------------===//
//
// End-to-end checks that synthesized SimIR programs execute correctly and
// that their branch streams realize the configured behavior models.
//
//===----------------------------------------------------------------------===//

#include "exec/ThreadedBackend.h"
#include "ir/Verifier.h"
#include "workload/ProgramSynthesizer.h"

#include <gtest/gtest.h>

#include <map>

using namespace specctrl;
using namespace specctrl::exec;
using namespace specctrl::workload;

namespace {

/// Counts per-site outcomes and iteration stores.
class SiteCounter : public NoEvents {
public:
  std::map<ir::SiteId, std::pair<uint64_t, uint64_t>> Counts; // taken/total
  uint64_t LastIteration = 0;

  explicit SiteCounter(uint64_t IterationAddr)
      : IterationAddr(IterationAddr) {}

  void noteBranch(ir::SiteId Site, bool Taken, uint64_t) {
    auto &[T, N] = Counts[Site];
    T += Taken;
    ++N;
  }
  void noteStore(uint64_t Addr, uint64_t Value) {
    if (Addr == IterationAddr)
      LastIteration = Value;
  }

private:
  uint64_t IterationAddr;
};

} // namespace

TEST(SynthesizedProgramTest, VerifiesAndRunsToCompletion) {
  const SynthSpec Spec = makeDefaultSynthSpec("t", 7, 20000, 3, 0.6);
  SynthProgram P = synthesize(Spec);
  std::string Error;
  ASSERT_TRUE(ir::verifyModule(P.Mod, &Error)) << Error;

  ThreadedBackend I(P.Mod, P.InitialMemory);
  SiteCounter Obs(P.IterationAddr);
  ASSERT_EQ(I.run(~0ull >> 1, Obs), StopReason::Halted);
  EXPECT_EQ(Obs.LastIteration, Spec.Iterations);
}

TEST(SynthesizedProgramTest, BranchStreamMatchesBehaviors) {
  SynthSpec Spec;
  Spec.Name = "biased";
  Spec.Seed = 11;
  Spec.Iterations = 30000;
  SynthRegion Region;
  Region.Name = "r0";
  SynthSite Biased;
  Biased.Behavior = BehaviorSpec::fixed(0.999);
  SynthSite Unbiased;
  Unbiased.Behavior = BehaviorSpec::fixed(0.5);
  Region.Sites = {Biased, Unbiased};
  Spec.Regions = {Region};

  SynthProgram P = synthesize(Spec);
  ThreadedBackend I(P.Mod, P.InitialMemory);
  SiteCounter Obs(P.IterationAddr);
  ASSERT_EQ(I.run(~0ull >> 1, Obs), StopReason::Halted);

  const auto &[T0, N0] = Obs.Counts[P.Sites[0].Site];
  const auto &[T1, N1] = Obs.Counts[P.Sites[1].Site];
  EXPECT_EQ(N0, Spec.Iterations);
  EXPECT_EQ(N1, Spec.Iterations);
  EXPECT_NEAR(static_cast<double>(T0) / N0, 0.999, 0.002);
  EXPECT_NEAR(static_cast<double>(T1) / N1, 0.5, 0.02);
}

TEST(SynthesizedProgramTest, ValueCheckGadgetFollowsBias) {
  SynthSpec Spec;
  Spec.Name = "valuecheck";
  Spec.Seed = 13;
  Spec.Iterations = 20000;
  SynthRegion Region;
  SynthSite VC;
  VC.UseValueCheck = true;
  VC.Behavior = BehaviorSpec::fixed(0.9);
  VC.CommonValue = 32;
  VC.ValueInvariance = 0.999;
  Region.Sites = {VC};
  Spec.Regions = {Region};

  SynthProgram P = synthesize(Spec);
  ThreadedBackend I(P.Mod, P.InitialMemory);
  SiteCounter Obs(P.IterationAddr);
  ASSERT_EQ(I.run(~0ull >> 1, Obs), StopReason::Halted);
  const auto &[T, N] = Obs.Counts[P.Sites[0].Site];
  EXPECT_EQ(N, Spec.Iterations);
  EXPECT_NEAR(static_cast<double>(T) / N, 0.9, 0.01);
}

TEST(SynthesizedProgramTest, DeterministicMemoryImage) {
  const SynthSpec Spec = makeDefaultSynthSpec("d", 21, 5000, 2, 0.5);
  SynthProgram A = synthesize(Spec);
  SynthProgram B = synthesize(Spec);
  ASSERT_EQ(A.InitialMemory.size(), B.InitialMemory.size());
  EXPECT_EQ(A.InitialMemory, B.InitialMemory);
  EXPECT_EQ(A.Sites.size(), B.Sites.size());
}

TEST(SynthesizedProgramTest, RerunIsArchitecturallyIdentical) {
  const SynthSpec Spec = makeDefaultSynthSpec("r", 31, 8000, 3, 0.7);
  SynthProgram P = synthesize(Spec);
  ThreadedBackend A(P.Mod, P.InitialMemory);
  ThreadedBackend B(P.Mod, P.InitialMemory);
  ASSERT_EQ(A.run(~0ull >> 1), StopReason::Halted);
  ASSERT_EQ(B.run(~0ull >> 1), StopReason::Halted);
  for (uint64_t Addr : P.writableAddrs())
    EXPECT_EQ(A.loadWord(Addr), B.loadWord(Addr)) << "addr " << Addr;
  EXPECT_EQ(A.instructionsRetired(), B.instructionsRetired());
}

TEST(SynthesizedProgramTest, ControlSitesAreMarked) {
  const SynthSpec Spec = makeDefaultSynthSpec("c", 41, 1000, 4, 0.6);
  SynthProgram P = synthesize(Spec);
  unsigned Control = 0, Gadget = 0;
  for (const SynthSiteInfo &Info : P.Sites)
    (Info.IsControlSite ? Control : Gadget) += 1;
  // Loop site + (regions-1) dispatch sites.
  EXPECT_EQ(Control, 4u);
  EXPECT_GT(Gadget, 8u);
  // Site ids are dense and match indices.
  for (size_t I = 0; I < P.Sites.size(); ++I)
    EXPECT_EQ(P.Sites[I].Site, I);
}
