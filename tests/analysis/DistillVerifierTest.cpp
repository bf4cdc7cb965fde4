//===- tests/analysis/DistillVerifierTest.cpp - Safety check tests --------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The DistillVerifier must (a) accept everything the distiller actually
/// produces -- including across the whole 12-benchmark seed suite under
/// aggressive requests -- and (b) fire the matching check, with site-level
/// coordinates, when a distilled function is mutated in each of the ways
/// the checks exist to catch: widening a store, dropping a speculated-path
/// store, removing a branch site without an assertion, and structural
/// corruption.
///
//===----------------------------------------------------------------------===//

#include "analysis/DistillVerifier.h"
#include "distill/Distiller.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "workload/ProgramSynthesizer.h"
#include "workload/SpecSuite.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace specctrl;
using namespace specctrl::analysis;
using namespace specctrl::distill;
using namespace specctrl::ir;

namespace {

bool hasKind(const VerifyResult &R, CheckKind K) {
  return std::any_of(R.Diags.begin(), R.Diags.end(),
                     [K](const Diagnostic &D) { return D.Kind == K; });
}

/// Region-like function with two branch sites: site 10 guards a side exit
/// that bumps address 500; site 11 picks between stores to 600/601.
/// Always stores the iteration marker to 400.
Function makeRegion() {
  Function F("region", 0, 8);
  IRBuilder B(F);
  const uint32_t Entry = B.makeBlock();
  const uint32_t Rare = B.makeBlock();
  const uint32_t Main = B.makeBlock();
  const uint32_t Then = B.makeBlock();
  const uint32_t Else = B.makeBlock();
  const uint32_t Exit = B.makeBlock();
  B.setBlock(Entry);
  B.load(1, 0, 100);
  B.cmpEqImm(2, 1, 77);
  B.br(2, Rare, Main, 10);
  B.setBlock(Rare);
  B.load(3, 0, 500);
  B.addImm(3, 3, 1);
  B.store(0, 500, 3);
  B.jmp(Main);
  B.setBlock(Main);
  B.load(4, 0, 101);
  B.cmpLtImm(5, 4, 50);
  B.br(5, Then, Else, 11);
  B.setBlock(Then);
  B.store(0, 600, 4);
  B.jmp(Exit);
  B.setBlock(Else);
  B.store(0, 601, 4);
  B.jmp(Exit);
  B.setBlock(Exit);
  B.movImm(6, 1);
  B.store(0, 400, 6);
  B.ret();
  EXPECT_TRUE(verifyFunction(F));
  return F;
}

DistillRequest assertBoth() {
  DistillRequest Request;
  Request.BranchAssertions[10] = false; // never take the rare exit
  Request.BranchAssertions[11] = true;  // always the Then store
  return Request;
}

TEST(DistillVerifierTest, AcceptsRealDistillation) {
  const Function Original = makeRegion();
  const DistillRequest Request = assertBoth();
  const DistillResult DR = distillFunction(Original, Request);

  // Sanity: the distillation really did remove both sites and the rare
  // path's store.
  EXPECT_EQ(DR.AssertedSites.size(), 2u);
  EXPECT_LT(DR.DistilledSize, DR.OriginalSize);

  const VerifyResult VR = verifyDistillation(Original, Request, DR.Distilled);
  EXPECT_TRUE(VR.ok()) << formatDiagnostics(VR);
}

TEST(DistillVerifierTest, AcceptsEmptyRequestCleanup) {
  const Function Original = makeRegion();
  const DistillRequest Request;
  const DistillResult DR = distillFunction(Original, Request);
  const VerifyResult VR = verifyDistillation(Original, Request, DR.Distilled);
  EXPECT_TRUE(VR.ok()) << formatDiagnostics(VR);
}

TEST(DistillVerifierTest, FlagsWidenedStore) {
  const Function Original = makeRegion();
  const DistillRequest Request = assertBoth();
  Function Distilled = distillFunction(Original, Request).Distilled;

  // Mutation: redirect the surviving 600-store to a fresh address.
  bool Mutated = false;
  for (uint32_t B = 0; B < Distilled.numBlocks() && !Mutated; ++B)
    for (Instruction &I : Distilled.block(B).Insts)
      if (I.Op == Opcode::Store && I.Imm == 600) {
        I.Imm = 999;
        Mutated = true;
        break;
      }
  ASSERT_TRUE(Mutated);

  const VerifyResult VR = verifyDistillation(Original, Request, Distilled);
  ASSERT_FALSE(VR.ok());
  EXPECT_TRUE(hasKind(VR, CheckKind::StoreWiden));
  // The diagnostic names the offending address.
  EXPECT_NE(formatDiagnostics(VR).find("999"), std::string::npos);
}

TEST(DistillVerifierTest, FlagsDroppedSpeculatedPathStore) {
  const Function Original = makeRegion();
  const DistillRequest Request = assertBoth();
  Function Distilled = distillFunction(Original, Request).Distilled;

  // Mutation: delete the iteration-marker store (address 400) -- an
  // effect the request-applied original provably executes.
  bool Mutated = false;
  for (uint32_t B = 0; B < Distilled.numBlocks() && !Mutated; ++B) {
    auto &Insts = Distilled.block(B).Insts;
    for (size_t I = 0; I < Insts.size(); ++I)
      if (Insts[I].Op == Opcode::Store && Insts[I].Imm == 400) {
        Insts.erase(Insts.begin() + static_cast<ptrdiff_t>(I));
        Mutated = true;
        break;
      }
  }
  ASSERT_TRUE(Mutated);

  const VerifyResult VR = verifyDistillation(Original, Request, Distilled);
  ASSERT_FALSE(VR.ok());
  EXPECT_TRUE(hasKind(VR, CheckKind::LiveOutDrop));
  EXPECT_NE(formatDiagnostics(VR).find("400"), std::string::npos);
}

TEST(DistillVerifierTest, FlagsBranchRemovedWithoutAssertion) {
  const Function Original = makeRegion();

  // Only site 10 is asserted; the distiller keeps site 11's branch.
  DistillRequest Request;
  Request.BranchAssertions[10] = false;
  Function Distilled = distillFunction(Original, Request).Distilled;

  // Mutation: straighten site 11's branch by hand, as if the distiller
  // had removed it without the controller's blessing.
  bool Mutated = false;
  for (uint32_t B = 0; B < Distilled.numBlocks() && !Mutated; ++B) {
    Instruction &Term = Distilled.block(B).Insts.back();
    if (Term.Op == Opcode::Br && Term.Site == 11) {
      Term = Instruction::makeJmp(Term.ThenTarget);
      Mutated = true;
    }
  }
  ASSERT_TRUE(Mutated);

  const VerifyResult VR = verifyDistillation(Original, Request, Distilled);
  ASSERT_FALSE(VR.ok());
  EXPECT_TRUE(hasKind(VR, CheckKind::SiteSpeculation));
  const Diagnostic &D = VR.Diags.front();
  EXPECT_EQ(D.Site, 11u);
}

TEST(DistillVerifierTest, FlagsStructuralCorruption) {
  const Function Original = makeRegion();
  const DistillRequest Request = assertBoth();
  Function Distilled = distillFunction(Original, Request).Distilled;

  // Mutation: chop off the entry block's terminator.
  Distilled.block(0).Insts.pop_back();

  const VerifyResult VR = verifyDistillation(Original, Request, Distilled);
  ASSERT_FALSE(VR.ok());
  EXPECT_TRUE(hasKind(VR, CheckKind::CfgWellFormed));
}

TEST(DistillVerifierTest, FlagsStaleAssertionAndBadValueTarget) {
  const Function Original = makeRegion();
  DistillRequest Request;
  Request.BranchAssertions[999] = true; // no such site
  Request.ValueConstants[{0, 1}] = 5;   // targets the cmp, not a load

  // Distill under the empty effective request (the distiller ignores
  // both), then verify under the bogus one.
  const Function Distilled =
      distillFunction(Original, DistillRequest()).Distilled;
  const VerifyResult VR = verifyDistillation(Original, Request, Distilled);
  ASSERT_EQ(VR.Diags.size(), 2u);
  EXPECT_TRUE(hasKind(VR, CheckKind::SiteSpeculation));
  const std::string Text = formatDiagnostics(VR);
  EXPECT_NE(Text.find("999"), std::string::npos);
  EXPECT_NE(Text.find("not target a load"), std::string::npos);
}

TEST(DistillVerifierTest, AcceptsValueSpeculatedDistillation) {
  const Function Original = makeRegion();
  DistillRequest Request;
  // Speculate the dispatch load (Main block, index 0) to a value that
  // decides site 11 without asserting it.
  Request.ValueConstants[{2, 0}] = 7; // 7 < 50 -> Then
  const DistillResult DR = distillFunction(Original, Request);
  EXPECT_GT(DR.SpeculatedLoads, 0u);

  const VerifyResult VR = verifyDistillation(Original, Request, DR.Distilled);
  EXPECT_TRUE(VR.ok()) << formatDiagnostics(VR);
}

TEST(DistillVerifierTest, DiagnosticFormatIsStable) {
  Diagnostic D;
  D.Kind = CheckKind::StoreWiden;
  D.Site = 42;
  D.Block = 3;
  D.Index = 1;
  D.InDistilled = true;
  D.Message = "boom";
  D.Function = "fn";
  EXPECT_EQ(formatDiagnostic(D),
            "fn: [store-widen] site 42 @ distilled:3/1: boom");
}

/// Acceptance gate: every region function of every seed benchmark,
/// distilled under the broadest realistic request (all non-control sites
/// asserted, every constant-addressed load value-speculated with its
/// initial-memory contents), verifies clean.
TEST(DistillVerifierSuiteTest, SeedSuiteDistillationsVerifyClean) {
  for (const workload::BenchmarkProfile &Profile :
       workload::suiteProfiles()) {
    const workload::SynthProgram P =
        workload::synthesize(workload::makeSynthSpecFor(Profile, 1000));
    for (uint32_t FuncId : P.RegionFunctions) {
      const Function &Original = P.Mod.function(FuncId);

      DistillRequest Request;
      for (const workload::SynthSiteInfo &S : P.Sites) {
        if (S.FunctionId != FuncId || S.IsControlSite)
          continue;
        Request.BranchAssertions[S.Site] = S.Behavior.BiasA >= 0.5;
      }
      for (uint32_t B = 0; B < Original.numBlocks(); ++B) {
        const BasicBlock &BB = Original.block(B);
        for (uint32_t I = 0; I < BB.size(); ++I) {
          const Instruction &Inst = BB.Insts[I];
          if (Inst.Op != Opcode::Load || Inst.SrcA != 0)
            continue;
          const uint64_t Addr = static_cast<uint64_t>(Inst.Imm);
          if (Addr < P.InitialMemory.size())
            Request.ValueConstants[{B, I}] =
                static_cast<int64_t>(P.InitialMemory[Addr]);
        }
      }

      const DistillResult DR = distillFunction(Original, Request);
      EXPECT_TRUE(verifyFunction(DR.Distilled));
      const VerifyResult VR =
          verifyDistillation(Original, Request, DR.Distilled);
      EXPECT_TRUE(VR.ok()) << Profile.Name << ": "
                           << formatDiagnostics(VR);
    }
  }
}

} // namespace
