//===- tests/distill/ValueProfilerTest.cpp --------------------------------===//

#include "distill/ValueProfiler.h"

#include <gtest/gtest.h>

using namespace specctrl;
using namespace specctrl::distill;

namespace {

exec::InstLocation loc(uint32_t Func, uint32_t Block, uint32_t Index) {
  exec::InstLocation L;
  L.Func = Func;
  L.Block = Block;
  L.Index = Index;
  return L;
}

} // namespace

TEST(ValueProfilerTest, DetectsInvariantLoad) {
  ValueProfiler P(/*FunctionId=*/3);
  for (int I = 0; I < 999; ++I)
    P.noteLoad(loc(3, 0, 1), 100, 32, 0);
  P.noteLoad(loc(3, 0, 1), 100, 40, 0);

  const auto Loads = P.invariantLoads(0.995, 64);
  ASSERT_EQ(Loads.size(), 1u);
  EXPECT_EQ(Loads.begin()->second, 32);
  EXPECT_EQ(Loads.begin()->first.Block, 0u);
  EXPECT_EQ(Loads.begin()->first.Index, 1u);
}

TEST(ValueProfilerTest, IgnoresOtherFunctions) {
  ValueProfiler P(3);
  for (int I = 0; I < 1000; ++I)
    P.noteLoad(loc(4, 0, 1), 100, 32, 0);
  EXPECT_TRUE(P.sites().empty());
}

TEST(ValueProfilerTest, RejectsVaryingLoad) {
  ValueProfiler P(0);
  for (int I = 0; I < 1000; ++I)
    P.noteLoad(loc(0, 0, 0), 100, static_cast<uint64_t>(I % 7), 0);
  EXPECT_TRUE(P.invariantLoads(0.995, 64).empty());
}

TEST(ValueProfilerTest, MinExecsGate) {
  ValueProfiler P(0);
  for (int I = 0; I < 32; ++I)
    P.noteLoad(loc(0, 0, 0), 100, 5, 0);
  EXPECT_TRUE(P.invariantLoads(0.99, 64).empty());
  EXPECT_EQ(P.invariantLoads(0.99, 16).size(), 1u);
}

TEST(ValueProfilerTest, MajorityVoteRecoversAfterPrefixNoise) {
  // A load that settles on a constant after a noisy warmup: the
  // Boyer-Moore candidate converges to the majority value.
  ValueProfiler P(0);
  for (int I = 0; I < 50; ++I)
    P.noteLoad(loc(0, 0, 0), 100, static_cast<uint64_t>(I), 0);
  for (int I = 0; I < 10000; ++I)
    P.noteLoad(loc(0, 0, 0), 100, 77, 0);
  const auto &S = P.sites().begin()->second;
  EXPECT_EQ(S.Candidate, 77u);
  EXPECT_GT(S.invariance(), 0.98);
}

TEST(ValueProfilerTest, TracksMultipleSitesIndependently) {
  ValueProfiler P(0);
  for (int I = 0; I < 200; ++I) {
    P.noteLoad(loc(0, 0, 0), 100, 1, 0);
    P.noteLoad(loc(0, 2, 5), 200, 9, 0);
  }
  const auto Loads = P.invariantLoads(0.99, 64);
  ASSERT_EQ(Loads.size(), 2u);
  EXPECT_EQ(Loads.at({0, 0}), 1);
  EXPECT_EQ(Loads.at({2, 5}), 9);
}
