//===- tests/mssp/CoreTimingTest.cpp --------------------------------------===//

#include "mssp/CoreTiming.h"

#include <gtest/gtest.h>

using namespace specctrl;
using namespace specctrl::mssp;

namespace {

CoreConfig leading() { return MachineConfig().Leading; }

} // namespace

TEST(CoreTimingTest, BaseIssueCost) {
  CoreTiming T(leading(), nullptr, 10, 200);
  for (int I = 0; I < 400; ++I)
    T.recordInstruction();
  // 4-wide: 400 instructions = 100 cycles.
  EXPECT_EQ(T.cycles(), 100u);
  EXPECT_EQ(T.instructions(), 400u);
}

TEST(CoreTimingTest, PartialGroupRoundsUp) {
  CoreTiming T(leading(), nullptr, 10, 200);
  for (int I = 0; I < 5; ++I)
    T.recordInstruction();
  EXPECT_EQ(T.cycles(), 2u);
}

TEST(CoreTimingTest, MispredictChargesPipelineDepth) {
  CoreTiming T(leading(), nullptr, 10, 200);
  // Random-ish alternation on a cold predictor: first update on a weakly
  // not-taken counter with Taken=true mispredicts.
  T.recordBranch(5, true);
  EXPECT_EQ(T.cycles(), 12u); // depth 12, no instructions yet
}

TEST(CoreTimingTest, CacheMissesStallHierarchically) {
  CacheModel L2(MachineConfig().L2);
  CoreTiming T(leading(), &L2, 10, 200);
  // Cold access: L1 miss (+10) and L2 miss (+200).
  T.recordMemoryAccess(0);
  EXPECT_EQ(T.cycles(), 210u);
  // Hit in L1 afterwards: free.
  T.recordMemoryAccess(0);
  EXPECT_EQ(T.cycles(), 210u);
  EXPECT_EQ(T.l1Misses(), 1u);
}

TEST(CoreTimingTest, L2HitCheaperThanMemory) {
  CacheModel L2(MachineConfig().L2);
  CoreTiming A(leading(), &L2, 10, 200);
  A.recordMemoryAccess(0); // warms shared L2 (and A's L1)
  // A second core with a cold L1 but the warm shared L2.
  CoreTiming B(leading(), &L2, 10, 200);
  B.recordMemoryAccess(0);
  EXPECT_EQ(B.cycles(), 10u); // L1 miss, L2 hit
}

TEST(CoreTimingTest, BiasedBranchesBecomeCheap) {
  CoreTiming T(leading(), nullptr, 10, 200);
  for (int I = 0; I < 10000; ++I)
    T.recordBranch(3, true);
  // Only warmup mispredicts: one per fresh history-indexed counter while
  // the global history register fills, then none.
  EXPECT_LE(T.branchMispredicts(), 20u);
}

TEST(CoreTimingTest, CallReturnBalancedIsFree) {
  CoreTiming T(leading(), nullptr, 10, 200);
  for (int I = 0; I < 100; ++I) {
    T.recordCall(7);
    T.recordReturn(7);
  }
  EXPECT_EQ(T.cycles(), 0u);
}

TEST(CoreTimingTest, ExternalStallsAccumulate) {
  CoreTiming T(leading(), nullptr, 10, 200);
  T.addStallCycles(400);
  EXPECT_EQ(T.cycles(), 400u);
}

TEST(CoreTimingTest, BulkChargeMatchesPerInstruction) {
  // addInstructions(N) must be bit-identical to N recordInstruction()
  // calls at every observation point -- the timing-fused tier's whole
  // issue accounting rests on this.  Exercise charges that straddle group
  // boundaries in every phase.
  const MachineConfig M;
  for (const CoreConfig &Core : {M.Leading, M.Trailing}) {
    CoreTiming PerInst(Core, nullptr, 10, 200);
    CoreTiming Bulk(Core, nullptr, 10, 200);
    uint64_t Total = 0;
    for (uint64_t N : {1ull, 3ull, 4ull, 7ull, 64ull, 1ull, 0ull, 5ull}) {
      for (uint64_t I = 0; I < N; ++I)
        PerInst.recordInstruction();
      Bulk.addInstructions(N);
      Total += N;
      ASSERT_EQ(PerInst.cycles(), Bulk.cycles()) << "after " << Total;
      ASSERT_EQ(PerInst.instructions(), Bulk.instructions());
      EXPECT_EQ(Bulk.instructions(), Total);
    }
  }
}

TEST(CoreTimingTest, BulkChargeInterleavesWithStalls) {
  // Issue accumulation is order-free between cycle reads: charging a
  // slice's instructions after its event stalls gives the same cycles as
  // the reference's interleaved accounting.
  CoreTiming Interleaved(leading(), nullptr, 10, 200);
  CoreTiming Batched(leading(), nullptr, 10, 200);
  // Interleaved: 5 insts, mispredict, 3 insts.
  for (int I = 0; I < 5; ++I)
    Interleaved.recordInstruction();
  Interleaved.recordBranch(5, true);
  for (int I = 0; I < 3; ++I)
    Interleaved.recordInstruction();
  // Batched: the event first, the slice's whole charge after.
  Batched.recordBranch(5, true);
  Batched.addInstructions(8);
  EXPECT_EQ(Interleaved.cycles(), Batched.cycles());
  EXPECT_EQ(Interleaved.instructions(), Batched.instructions());
}

TEST(CoreTimingTest, NarrowCoreIsSlower) {
  const MachineConfig M;
  CoreTiming Wide(M.Leading, nullptr, 10, 200);
  CoreTiming Narrow(M.Trailing, nullptr, 10, 200);
  for (int I = 0; I < 1000; ++I) {
    Wide.recordInstruction();
    Narrow.recordInstruction();
  }
  EXPECT_EQ(Wide.cycles(), 250u);
  EXPECT_EQ(Narrow.cycles(), 500u);
}
