//===- tests/exec/InterpreterTest.cpp -------------------------------------===//
//
// SimIR execution semantics on the engine: ALU, loops, fuel, calls,
// code-version swaps, stops, faults, and out-of-image loads.
//
//===----------------------------------------------------------------------===//

#include "exec/ThreadedBackend.h"

#include "ir/IRBuilder.h"

#include <gtest/gtest.h>

using namespace specctrl;
using namespace specctrl::exec;
using namespace specctrl::ir;

namespace {

/// Records branch and store events.
class RecordingObserver : public NoEvents {
public:
  std::vector<std::pair<SiteId, bool>> Branches;
  std::vector<std::pair<uint64_t, uint64_t>> Stores;

  void noteBranch(SiteId Site, bool Taken, uint64_t) {
    Branches.emplace_back(Site, Taken);
  }
  void noteStore(uint64_t Addr, uint64_t Value) {
    Stores.emplace_back(Addr, Value);
  }
};

} // namespace

TEST(InterpreterTest, AluSemantics) {
  Module M;
  Function &F = M.createFunction("alu", 8);
  IRBuilder B(F);
  B.setBlock(B.makeBlock());
  B.movImm(1, 10);
  B.movImm(2, 3);
  B.binary(Opcode::Add, 3, 1, 2);  // 13
  B.binary(Opcode::Sub, 4, 1, 2);  // 7
  B.binary(Opcode::Mul, 5, 1, 2);  // 30
  B.store(0, 100, 3);
  B.store(0, 101, 4);
  B.store(0, 102, 5);
  B.binary(Opcode::CmpLt, 6, 2, 1); // 1
  B.store(0, 103, 6);
  B.movImm(1, -5);
  B.cmpLtImm(6, 1, 0); // signed: -5 < 0 -> 1
  B.store(0, 104, 6);
  B.binary(Opcode::Shl, 7, 2, 2); // 3 << 3 = 24
  B.store(0, 105, 7);
  B.halt();

  ThreadedBackend I(M, std::vector<uint64_t>(128, 0));
  EXPECT_EQ(I.run(1000), StopReason::Halted);
  EXPECT_EQ(I.loadWord(100), 13u);
  EXPECT_EQ(I.loadWord(101), 7u);
  EXPECT_EQ(I.loadWord(102), 30u);
  EXPECT_EQ(I.loadWord(103), 1u);
  EXPECT_EQ(I.loadWord(104), 1u);
  EXPECT_EQ(I.loadWord(105), 24u);
}

TEST(InterpreterTest, LoopExecutesAndCounts) {
  // for (i = 0; i < 10; ++i) mem[50] += 2;
  Module M;
  Function &F = M.createFunction("loop", 8);
  IRBuilder B(F);
  const uint32_t Header = B.makeBlock();
  const uint32_t Body = B.makeBlock();
  const uint32_t Exit = B.makeBlock();
  B.setBlock(Header);
  B.cmpLtImm(2, 1, 10);
  B.br(2, Body, Exit, 5);
  B.setBlock(Body);
  B.load(3, 0, 50);
  B.addImm(3, 3, 2);
  B.store(0, 50, 3);
  B.addImm(1, 1, 1);
  B.jmp(Header);
  B.setBlock(Exit);
  B.halt();

  ThreadedBackend I(M, std::vector<uint64_t>(64, 0));
  RecordingObserver Obs;
  EXPECT_EQ(I.run(100000, Obs), StopReason::Halted);
  EXPECT_EQ(I.loadWord(50), 20u);
  // 11 branch evaluations: 10 taken + 1 exit.
  ASSERT_EQ(Obs.Branches.size(), 11u);
  EXPECT_TRUE(Obs.Branches[0].second);
  EXPECT_FALSE(Obs.Branches[10].second);
  EXPECT_EQ(Obs.Branches[0].first, 5u);
}

TEST(InterpreterTest, FuelExhaustionIsResumable) {
  Module M;
  Function &F = M.createFunction("spin", 4);
  IRBuilder B(F);
  const uint32_t Header = B.makeBlock();
  const uint32_t Body = B.makeBlock();
  const uint32_t Exit = B.makeBlock();
  B.setBlock(Header);
  B.cmpLtImm(2, 1, 1000);
  B.br(2, Body, Exit, 1);
  B.setBlock(Body);
  B.addImm(1, 1, 1);
  B.jmp(Header);
  B.setBlock(Exit);
  B.halt();

  ThreadedBackend I(M, std::vector<uint64_t>{});
  EXPECT_EQ(I.run(100), StopReason::FuelExhausted);
  const uint64_t After100 = I.instructionsRetired();
  EXPECT_EQ(After100, 100u);
  EXPECT_EQ(I.run(1u << 20), StopReason::Halted);
  EXPECT_TRUE(I.halted());
  EXPECT_EQ(I.run(10), StopReason::Halted);
}

TEST(InterpreterTest, CallFramesAreIsolated) {
  Module M;
  Function &Callee = M.createFunction("callee", 4);
  {
    IRBuilder B(Callee);
    B.setBlock(B.makeBlock());
    // Callee registers start at zero; writing them must not disturb the
    // caller's registers.
    B.movImm(1, 777);
    B.store(0, 60, 1);
    B.ret();
  }
  // createFunction may reallocate the table; capture the id before growing.
  const uint32_t CalleeId = Callee.id();
  Function &Main = M.createFunction("main", 4);
  {
    IRBuilder B(Main);
    B.setBlock(B.makeBlock());
    B.movImm(1, 42);
    B.call(CalleeId);
    B.store(0, 61, 1); // must still be 42
    B.halt();
  }
  M.setEntry(Main.id());

  ThreadedBackend I(M, std::vector<uint64_t>(64, 0));
  EXPECT_EQ(I.run(1000), StopReason::Halted);
  EXPECT_EQ(I.loadWord(60), 777u);
  EXPECT_EQ(I.loadWord(61), 42u);
}

TEST(InterpreterTest, ReturnFromEntryHalts) {
  Module M;
  Function &F = M.createFunction("main", 2);
  IRBuilder B(F);
  B.setBlock(B.makeBlock());
  B.ret();
  ThreadedBackend I(M, std::vector<uint64_t>{});
  EXPECT_EQ(I.run(10), StopReason::Halted);
}

TEST(InterpreterTest, CodeVersionSwapTakesEffectOnNextCall) {
  Module M;
  Function &Region = M.createFunction("region", 4);
  {
    IRBuilder B(Region);
    B.setBlock(B.makeBlock());
    B.movImm(1, 1);
    B.load(2, 0, 10);
    B.binary(Opcode::Add, 2, 2, 1);
    B.store(0, 10, 2);
    B.ret();
  }
  // createFunction may reallocate the table; capture the id before growing.
  const uint32_t RegionId = Region.id();
  Function &Main = M.createFunction("main", 4);
  {
    IRBuilder B(Main);
    B.setBlock(B.makeBlock());
    B.call(RegionId);
    B.call(RegionId);
    B.halt();
  }
  M.setEntry(Main.id());

  // The alternative version adds 100 instead of 1.
  Function Alt("region.v2", RegionId, 4);
  {
    IRBuilder B(Alt);
    B.setBlock(B.makeBlock());
    B.movImm(1, 100);
    B.load(2, 0, 10);
    B.binary(Opcode::Add, 2, 2, 1);
    B.store(0, 10, 2);
    B.ret();
  }

  ThreadedBackend I(M, std::vector<uint64_t>(32, 0));
  // Run until just after the first call completes (6 main+region insts...
  // simpler: run 1 instruction at a time until mem[10]==1).
  while (I.loadWord(10) != 1)
    ASSERT_EQ(I.run(1), StopReason::FuelExhausted);
  I.setCodeVersion(RegionId, &Alt);
  EXPECT_EQ(I.run(1u << 20), StopReason::Halted);
  EXPECT_EQ(I.loadWord(10), 101u);
}

TEST(InterpreterTest, StopRequestPausesExactly) {
  Module M;
  Function &F = M.createFunction("main", 4);
  IRBuilder B(F);
  B.setBlock(B.makeBlock());
  for (int I = 0; I < 10; ++I)
    B.store(0, 20 + I, 1);
  B.halt();

  class StopAtStore : public NoEvents {
  public:
    ThreadedBackend *I = nullptr;
    uint64_t StopAddr = 0;
    void noteStore(uint64_t Addr, uint64_t) {
      if (Addr == StopAddr)
        I->requestStop();
    }
  };

  ThreadedBackend I(M, std::vector<uint64_t>(64, 0));
  StopAtStore Obs;
  Obs.I = &I;
  Obs.StopAddr = 23;
  EXPECT_EQ(I.run(1000, Obs), StopReason::Stopped);
  EXPECT_EQ(I.instructionsRetired(), 4u); // stores to 20,21,22,23
  EXPECT_EQ(I.run(1000, Obs), StopReason::Halted);
}

TEST(InterpreterTest, DeepRecursionFaults) {
  Module M;
  Function &F = M.createFunction("rec", 2);
  IRBuilder B(F);
  B.setBlock(B.makeBlock());
  B.call(0); // infinite self-recursion
  B.ret();
  ThreadedBackend I(M, std::vector<uint64_t>{});
  EXPECT_EQ(I.run(1u << 20), StopReason::Fault);
}

TEST(InterpreterTest, LoadBeyondImageReadsZero) {
  Module M;
  Function &F = M.createFunction("main", 4);
  IRBuilder B(F);
  B.setBlock(B.makeBlock());
  B.movImm(1, 1 << 20);
  B.load(2, 1, 0);
  B.store(0, 0, 2);
  B.halt();
  ThreadedBackend I(M, std::vector<uint64_t>(4, 7));
  EXPECT_EQ(I.run(100), StopReason::Halted);
  EXPECT_EQ(I.loadWord(0), 0u);
}
