//===- tests/distill/DistillerTest.cpp ------------------------------------===//
//
// Whole-pipeline distillation tests, including the semantic-preservation
// property: when every speculation holds, the distilled code computes the
// same memory live-outs as the original.
//
//===----------------------------------------------------------------------===//

#include "distill/Distiller.h"

#include "exec/ThreadedBackend.h"
#include "ir/Verifier.h"
#include "workload/ProgramSynthesizer.h"

#include <gtest/gtest.h>

using namespace specctrl;
using namespace specctrl::distill;
using namespace specctrl::ir;
using namespace specctrl::workload;

namespace {

/// Builds a single-region program where every site is deterministic in the
/// assumed direction, so assertions never misspeculate.
SynthProgram makeDeterministicProgram(uint64_t Iterations) {
  SynthSpec Spec;
  Spec.Name = "det";
  Spec.Seed = 3;
  Spec.Iterations = Iterations;
  SynthRegion Region;
  SynthSite Always;
  Always.Behavior = BehaviorSpec::fixed(1.0);
  SynthSite Never;
  Never.Behavior = BehaviorSpec::fixed(0.0);
  Region.Sites = {Always, Never};
  Spec.Regions = {Region};
  return synthesize(Spec);
}

} // namespace

TEST(DistillerTest, ShrinksAssertedRegion) {
  SynthProgram P = makeDeterministicProgram(100);
  const uint32_t RegionFunc = P.RegionFunctions[0];
  DistillRequest Request;
  Request.BranchAssertions[P.Sites[0].Site] = true;
  Request.BranchAssertions[P.Sites[1].Site] = false;

  const DistillResult R =
      distillFunction(P.Mod.function(RegionFunc), Request);
  EXPECT_EQ(R.AssertedSites.size(), 2u);
  EXPECT_LT(R.DistilledSize, R.OriginalSize);
  // Both branch instructions and both outcome loads must be gone, plus a
  // whole arm each: at least 6 instructions saved.
  EXPECT_GE(R.InstructionsEliminated(), 6u);
  std::string Error;
  EXPECT_TRUE(verifyFunction(R.Distilled, &Error)) << Error;
  // No conditional branches remain.
  for (const BasicBlock &BB : R.Distilled.blocks())
    for (const Instruction &I : BB.Insts)
      EXPECT_NE(I.Op, Opcode::Br);
}

TEST(DistillerTest, SemanticPreservationWhenSpeculationsHold) {
  SynthProgram P = makeDeterministicProgram(500);
  const uint32_t RegionFunc = P.RegionFunctions[0];
  DistillRequest Request;
  Request.BranchAssertions[P.Sites[0].Site] = true;
  Request.BranchAssertions[P.Sites[1].Site] = false;
  DistillResult R = distillFunction(P.Mod.function(RegionFunc), Request);

  exec::ThreadedBackend Original(P.Mod, P.InitialMemory);
  exec::ThreadedBackend Distilled(P.Mod, P.InitialMemory);
  Distilled.setCodeVersion(RegionFunc, &R.Distilled);

  ASSERT_EQ(Original.run(~0ull >> 1), exec::StopReason::Halted);
  ASSERT_EQ(Distilled.run(~0ull >> 1), exec::StopReason::Halted);

  for (uint64_t Addr : P.writableAddrs())
    EXPECT_EQ(Original.loadWord(Addr), Distilled.loadWord(Addr))
        << "addr " << Addr;
  // And it really executed fewer instructions.
  EXPECT_LT(Distilled.instructionsRetired(),
            Original.instructionsRetired());
}

TEST(DistillerTest, MisspeculationChangesLiveOuts) {
  // Assert the wrong direction: the distilled run must diverge in the
  // accumulator (that divergence is exactly what MSSP verification
  // detects).
  SynthProgram P = makeDeterministicProgram(50);
  const uint32_t RegionFunc = P.RegionFunctions[0];
  DistillRequest Request;
  Request.BranchAssertions[P.Sites[0].Site] = false; // wrong!
  DistillResult R = distillFunction(P.Mod.function(RegionFunc), Request);

  exec::ThreadedBackend Original(P.Mod, P.InitialMemory);
  exec::ThreadedBackend Distilled(P.Mod, P.InitialMemory);
  Distilled.setCodeVersion(RegionFunc, &R.Distilled);
  ASSERT_EQ(Original.run(~0ull >> 1), exec::StopReason::Halted);
  ASSERT_EQ(Distilled.run(~0ull >> 1), exec::StopReason::Halted);

  EXPECT_NE(Original.loadWord(P.AccumulatorAddrs[0]),
            Distilled.loadWord(P.AccumulatorAddrs[0]));
}

TEST(DistillerTest, ValueSpeculationPlusFoldingFigure1) {
  // The Fig. 1 pipeline: a value-check gadget with an invariant bound.
  SynthSpec Spec;
  Spec.Name = "fig1";
  Spec.Seed = 8;
  Spec.Iterations = 200;
  SynthRegion Region;
  SynthSite VC;
  VC.UseValueCheck = true;
  VC.Behavior = BehaviorSpec::fixed(1.0); // always data < bound
  VC.CommonValue = 32;
  VC.ValueInvariance = 1.0; // perfectly invariant for this test
  Region.Sites = {VC};
  Spec.Regions = {Region};
  SynthProgram P = synthesize(Spec);
  const uint32_t RegionFunc = P.RegionFunctions[0];
  const Function &Original = P.Mod.function(RegionFunc);

  // Find the bound load (the one reading the value tape): block 0, the
  // second instruction by construction.
  DistillRequest Request;
  Request.ValueConstants[{0, 1}] = 32;
  Request.BranchAssertions[P.Sites[0].Site] = true;
  DistillResult R = distillFunction(Original, Request);
  EXPECT_EQ(R.SpeculatedLoads, 1u);
  EXPECT_LT(R.DistilledSize, R.OriginalSize);

  // Equivalence under held speculations.
  exec::ThreadedBackend O(P.Mod, P.InitialMemory);
  exec::ThreadedBackend D(P.Mod, P.InitialMemory);
  D.setCodeVersion(RegionFunc, &R.Distilled);
  ASSERT_EQ(O.run(~0ull >> 1), exec::StopReason::Halted);
  ASSERT_EQ(D.run(~0ull >> 1), exec::StopReason::Halted);
  for (uint64_t Addr : P.writableAddrs())
    EXPECT_EQ(O.loadWord(Addr), D.loadWord(Addr));
}

TEST(DistillerTest, EmptyRequestIsIdentityModuloCleanup) {
  SynthProgram P = makeDeterministicProgram(10);
  const uint32_t RegionFunc = P.RegionFunctions[0];
  const DistillResult R =
      distillFunction(P.Mod.function(RegionFunc), DistillRequest{});
  EXPECT_TRUE(R.AssertedSites.empty());
  // Without assertions only non-speculative cleanups apply (strength
  // reduction can retire a few constant producers); no branch leaves.
  EXPECT_LE(R.DistilledSize, R.OriginalSize);
  unsigned Branches = 0, OriginalBranches = 0;
  for (const BasicBlock &BB : R.Distilled.blocks())
    for (const Instruction &I : BB.Insts)
      Branches += I.Op == Opcode::Br;
  for (const BasicBlock &BB :
       P.Mod.function(RegionFunc).blocks())
    for (const Instruction &I : BB.Insts)
      OriginalBranches += I.Op == Opcode::Br;
  EXPECT_EQ(Branches, OriginalBranches);

  exec::ThreadedBackend O(P.Mod, P.InitialMemory);
  exec::ThreadedBackend D(P.Mod, P.InitialMemory);
  D.setCodeVersion(RegionFunc, &R.Distilled);
  ASSERT_EQ(O.run(~0ull >> 1), exec::StopReason::Halted);
  ASSERT_EQ(D.run(~0ull >> 1), exec::StopReason::Halted);
  for (uint64_t Addr : P.writableAddrs())
    EXPECT_EQ(O.loadWord(Addr), D.loadWord(Addr));
}

TEST(DistillerTest, PartialAssertionKeepsOtherBranches) {
  SynthProgram P = makeDeterministicProgram(20);
  const uint32_t RegionFunc = P.RegionFunctions[0];
  DistillRequest Request;
  Request.BranchAssertions[P.Sites[0].Site] = true;
  const DistillResult R =
      distillFunction(P.Mod.function(RegionFunc), Request);
  unsigned Branches = 0;
  for (const BasicBlock &BB : R.Distilled.blocks())
    for (const Instruction &I : BB.Insts)
      Branches += I.Op == Opcode::Br;
  EXPECT_EQ(Branches, 1u); // site 1's branch survives
}

TEST(DistillerTest, RequestListParsersRejectWhatTheyCannotRepresent) {
  std::map<SiteId, bool> Asserts;
  EXPECT_TRUE(parseBranchAssertions("7:n,12:t", Asserts));
  EXPECT_EQ(Asserts, (std::map<SiteId, bool>{{7, false}, {12, true}}));
  std::map<LocKey, int64_t> Values;
  EXPECT_TRUE(parseValueConstants("1:2:-3", Values));
  EXPECT_EQ(Values, (std::map<LocKey, int64_t>{{LocKey{1, 2}, -3}}));

  for (const char *Bad : {"abc:t", "7", "7:x", "-1:t", " 7:t", "4294967296:t"})
    EXPECT_FALSE(parseBranchAssertions(Bad, Asserts)) << Bad;
  for (const char *Bad : {"1:x:3", "1:2:abc", "1:2", "-1:2:3", "1:2:+3",
                          "1:2:9223372036854775808"})
    EXPECT_FALSE(parseValueConstants(Bad, Values)) << Bad;
}
