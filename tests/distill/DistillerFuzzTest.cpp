//===- tests/distill/DistillerFuzzTest.cpp --------------------------------===//
//
// Property-based fuzzing of the distillation pipeline:
//
//  * random ALU programs: constant folding + DCE must preserve the exact
//    memory-visible semantics of the interpreter;
//  * random synthesized programs with deterministic branches: asserting
//    every branch to its true direction must preserve all writable state
//    while strictly shrinking the dynamic instruction count.
//
//===----------------------------------------------------------------------===//

#include "FuzzPrograms.h"

#include "exec/ThreadedBackend.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace specctrl;
using namespace specctrl::distill;
using namespace specctrl::ir;

namespace {

std::vector<uint64_t> runAndDump(const Module &M, const Function *Version,
                                 uint32_t FuncId) {
  exec::ThreadedBackend Interp(M, fuzz::straightLineMemory());
  if (Version)
    Interp.setCodeVersion(FuncId, Version);
  EXPECT_EQ(Interp.run(1u << 22), exec::StopReason::Halted);
  std::vector<uint64_t> Out;
  for (uint64_t Addr = 16; Addr < 48; ++Addr)
    Out.push_back(Interp.loadWord(Addr));
  return Out;
}

class StraightLineFuzz : public ::testing::TestWithParam<uint64_t> {};
class SynthesizedFuzz : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(StraightLineFuzz, OptimizationsPreserveMemorySemantics) {
  Rng R(GetParam());
  for (int Round = 0; Round < 20; ++Round) {
    Module M;
    fuzz::buildStraightLineModule(M, R);
    ASSERT_TRUE(verifyModule(M, nullptr));

    const std::vector<uint64_t> Reference = runAndDump(M, nullptr, 1);

    // Fold + DCE + straighten via the full pipeline with no speculations:
    // must be a pure (semantics-preserving) cleanup.
    const DistillResult Result =
        distillFunction(M.function(1), DistillRequest{});
    const std::vector<uint64_t> Optimized =
        runAndDump(M, &Result.Distilled, 1);
    ASSERT_EQ(Reference, Optimized) << "round " << Round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StraightLineFuzz,
                         ::testing::Values(11ull, 222ull, 3333ull, 44444ull,
                                           555555ull));

TEST_P(SynthesizedFuzz, TrueAssertionsPreserveStateAndShrinkWork) {
  using namespace specctrl::workload;
  Rng R(GetParam());
  for (int Round = 0; Round < 4; ++Round) {
    // Deterministic branch behaviors so "assert the true direction" never
    // misspeculates.
    const SynthSpec Spec = fuzz::makeDeterministicSynthSpec(R);
    SynthProgram P = synthesize(Spec);

    // Reference run.
    exec::ThreadedBackend Original(P.Mod, P.InitialMemory);
    ASSERT_EQ(Original.run(~0ull >> 1), exec::StopReason::Halted);

    // Assert every gadget site to its true direction and distill every
    // region.
    exec::ThreadedBackend Distilled(P.Mod, P.InitialMemory);
    std::vector<DistillResult> Results;
    Results.reserve(P.RegionFunctions.size());
    for (uint32_t FuncId : P.RegionFunctions) {
      Results.push_back(distillFunction(P.Mod.function(FuncId),
                                        fuzz::dominantAssertions(P, FuncId)));
      Distilled.setCodeVersion(FuncId, &Results.back().Distilled);
    }
    ASSERT_EQ(Distilled.run(~0ull >> 1), exec::StopReason::Halted);

    for (uint64_t Addr : P.writableAddrs())
      ASSERT_EQ(Original.loadWord(Addr), Distilled.loadWord(Addr))
          << "seed " << GetParam() << " round " << Round << " addr "
          << Addr;
    EXPECT_LT(Distilled.instructionsRetired(),
              Original.instructionsRetired());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SynthesizedFuzz,
                         ::testing::Values(7ull, 77ull, 777ull, 7777ull));
