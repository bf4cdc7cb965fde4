//===- tests/exec/ThreadedBackendTest.cpp ---------------------------------===//
//
// Unit tests for the engine's moving parts that the differential suite
// (tests/oracle) exercises only indirectly: the decode pass (flattening,
// opcodes, target resolution), the per-version decode cache, the
// stale-handle generation guard, and ArchPosition transplants -- between
// engines, as MSSP squash recovery uses them, and to and from the
// definitional interpreter.
//
//===----------------------------------------------------------------------===//

#include "exec/ThreadedBackend.h"

#include "../oracle/Differential.h"

#include "ir/IRBuilder.h"
#include "workload/ProgramSynthesizer.h"
#include "workload/SpecSuite.h"

#include <gtest/gtest.h>

using namespace specctrl;
using namespace specctrl::exec;
using namespace specctrl::ir;

namespace {

/// main: loops B1 N times accumulating into memory, then halts.
/// Exercises a compare-and-branch loop head and a loop back-edge.
Module makeLoopModule(int64_t Trips) {
  Module M;
  Function &F = M.createFunction("main", 4);
  IRBuilder B(F);
  const uint32_t Head = B.makeBlock();
  const uint32_t Body = B.makeBlock();
  const uint32_t Done = B.makeBlock();
  B.setBlock(Head);
  B.cmpLtImm(2, 1, Trips);
  B.br(2, Body, Done, /*Site=*/0);
  B.setBlock(Body);
  B.load(3, 0, 16);
  B.addImm(1, 1, 1);
  B.addImm(3, 3, 7);
  B.store(0, 16, 3);
  B.jmp(Head);
  B.setBlock(Done);
  B.halt();
  return M;
}

} // namespace

TEST(DecodeFunction, FlattensBlocksWithBijectivePcs) {
  const Module M = makeLoopModule(10);
  const Function &F = M.function(0);
  const std::unique_ptr<DecodedFunction> DF = decodeFunction(F);

  // Exactly one decoded entry per source instruction.
  size_t Total = 0;
  for (uint32_t B = 0; B < F.numBlocks(); ++B)
    Total += F.block(B).size();
  ASSERT_EQ(DF->Insts.size(), Total);

  // pcOf inverts the stored source coordinates on every entry, and the
  // entry carries that source instruction's opcode and operands.
  for (uint32_t PC = 0; PC < DF->Insts.size(); ++PC) {
    const DecodedInst &D = DF->Insts[PC];
    EXPECT_EQ(DF->pcOf(D.Block, D.Index), PC);
    EXPECT_EQ(D.Op, F.block(D.Block).Insts[D.Index].Op);
    EXPECT_EQ(D.Imm, F.block(D.Block).Insts[D.Index].Imm);
  }
  // The final BlockStart entry closes the last block.
  EXPECT_EQ(DF->BlockStart.back(), Total);

  // Branch targets resolve to the decoded head of their blocks.
  const DecodedInst &Br = DF->Insts[DF->pcOf(0, 1)];
  EXPECT_EQ(Br.ThenPC, DF->BlockStart[1]);
  EXPECT_EQ(Br.ElsePC, DF->BlockStart[2]);
}

TEST(ThreadedBackend, ExecutesLoopExactly) {
  const Module M = makeLoopModule(1000);
  std::vector<uint64_t> Memory(32, 0);

  oracle::Machine Ref(M, Memory);
  ThreadedBackend Thr(M, Memory);
  EXPECT_EQ(Ref.run(~0ull >> 1), oracle::Status::Halted);
  EXPECT_EQ(Thr.run(~0ull >> 1), StopReason::Halted);
  EXPECT_EQ(Thr.loadWord(16), 7000u);
  difftest::expectSameState(Thr, Ref, "loop");
}

TEST(ThreadedBackend, DecodeCacheReusesVersions) {
  const Module M = makeLoopModule(50);
  ThreadedBackend Thr(M, std::vector<uint64_t>(32, 0));

  // Re-dispatching the same version (the MSSP revoke/redeploy
  // oscillation) must keep codeFor stable and execution correct.
  const Function &F = M.function(0);
  Thr.setCodeVersion(0, &F);
  Thr.setCodeVersion(0, &F);
  EXPECT_EQ(&Thr.codeFor(0), &F);
  EXPECT_EQ(Thr.run(~0ull >> 1), StopReason::Halted);
  EXPECT_EQ(Thr.loadWord(16), 350u);
}

using ThreadedBackendDeathTest = ::testing::Test;

TEST(ThreadedBackendDeathTest, AbortsOnStaleModuleHandles) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Module M = makeLoopModule(10);
  ThreadedBackend Thr(M, std::vector<uint64_t>(32, 0));

  // Structural mutation invalidates every cached Function handle (the
  // pattern PR 5's ASAN pass caught): the backend must refuse to touch
  // the module instead of dereferencing stale pointers.
  Function &Extra = M.createFunction("extra", 2);
  {
    IRBuilder B(Extra);
    B.setBlock(B.makeBlock());
    B.ret();
  }
  EXPECT_DEATH(Thr.setCodeVersion(0, &M.function(0)), "module mutated");
}

TEST(ThreadedBackend, ArchPositionSelfRoundTrip) {
  const Module M = makeLoopModule(1000);
  ThreadedBackend A(M, std::vector<uint64_t>(32, 0));
  ThreadedBackend B(M, std::vector<uint64_t>(32, 0));

  // Run A partway (mid-loop, mid-block), transplant its position into B
  // along with memory, and let both finish.
  EXPECT_EQ(A.run(1237), StopReason::FuelExhausted);
  B.memory() = A.memory();
  B.adoptPositionFrom(A);
  EXPECT_EQ(B.instructionsRetired(), 0u); // position, not counters

  EXPECT_EQ(A.run(~0ull >> 1), StopReason::Halted);
  EXPECT_EQ(B.run(~0ull >> 1), StopReason::Halted);
  EXPECT_EQ(A.memory(), B.memory());
  EXPECT_EQ(A.loadWord(16), 7000u);
}

TEST(ThreadedBackend, CrossBackendPositionTransplant) {
  // Positions are source coordinates, not engine internals: a position
  // taken from the engine mid-run continues correctly in the definitional
  // interpreter, and one taken from the interpreter continues correctly in
  // the engine.
  const workload::SynthProgram P = workload::synthesize(
      workload::makeSynthSpecFor(workload::profileByName("bzip2"), 400));

  ThreadedBackend Thr(P.Mod, P.InitialMemory);
  EXPECT_EQ(Thr.run(5003), StopReason::FuelExhausted);
  oracle::Machine Ref(P.Mod, Thr.memory());
  difftest::adoptPosition(Ref, Thr.archPosition());
  EXPECT_EQ(Thr.run(~0ull >> 1), StopReason::Halted);
  EXPECT_EQ(Ref.run(~0ull >> 1), oracle::Status::Halted);
  EXPECT_EQ(Ref.Memory, Thr.memory());

  // And the reverse direction.
  oracle::Machine Ref2(P.Mod, P.InitialMemory);
  EXPECT_EQ(Ref2.run(5003), oracle::Status::Running);
  ThreadedBackend Thr2(P.Mod, Ref2.Memory);
  Thr2.setArchPosition(difftest::positionOf(Ref2));
  EXPECT_EQ(Ref2.run(~0ull >> 1), oracle::Status::Halted);
  EXPECT_EQ(Thr2.run(~0ull >> 1), StopReason::Halted);
  EXPECT_EQ(Ref2.Memory, Thr2.memory());
}
