//===- tests/exec/ThreadedBackendTest.cpp ---------------------------------===//
//
// Unit tests for the engine's moving parts that the differential suite
// (tests/oracle) exercises only indirectly: the decode pass (flattening,
// target resolution, superinstruction fusion and its adjacency rules), the
// per-version decode cache, the stale-handle generation guard, and
// ArchPosition transplants -- between engines, as MSSP squash recovery
// uses them, and to and from the definitional interpreter.
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

/// main: loops B1 (cmp+br pattern) N times accumulating into memory,
/// then halts.  Exercises CmpLtImm+Br fusion and a loop back-edge.
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
  // entry carries that source instruction's operands.
  for (uint32_t PC = 0; PC < DF->Insts.size(); ++PC) {
    const DecodedInst &D = DF->Insts[PC];
    EXPECT_EQ(DF->pcOf(D.Block, D.Index), PC);
    EXPECT_EQ(D.Imm, F.block(D.Block).Insts[D.Index].Imm);
  }
  // The final BlockStart entry closes the last block.
  EXPECT_EQ(DF->BlockStart.back(), Total);

  // Branch targets resolve to the decoded head of their blocks.
  const DecodedInst &Br = DF->Insts[DF->pcOf(0, 1)];
  EXPECT_EQ(Br.ThenPC, DF->BlockStart[1]);
  EXPECT_EQ(Br.ElsePC, DF->BlockStart[2]);
}

TEST(DecodeFunction, FusesDistillerPatterns) {
  const Module M = makeLoopModule(10);
  const std::unique_ptr<DecodedFunction> DF =
      decodeFunction(M.function(0));

  // Head block: cmpltimm + br fuses at the pair head; the Br keeps its
  // plain entry so mid-pair resume lands on a real instruction.
  EXPECT_EQ(DF->Insts[DF->pcOf(0, 0)].Op, XOp::FCmpLtImmBr);
  EXPECT_EQ(DF->Insts[DF->pcOf(0, 1)].Op, XOp::Br);

  // Body: load + addimm fuses; the following addimm + store fuses too
  // (greedy non-overlapping, left to right).
  EXPECT_EQ(DF->Insts[DF->pcOf(1, 0)].Op, XOp::FLoadAddImm);
  EXPECT_EQ(DF->Insts[DF->pcOf(1, 1)].Op, XOp::AddImm);
  EXPECT_EQ(DF->Insts[DF->pcOf(1, 2)].Op, XOp::FAddImmStore);
  EXPECT_EQ(DF->Insts[DF->pcOf(1, 3)].Op, XOp::Store);
}

TEST(DecodeFunction, FusionStopsAtBlockBoundaries) {
  // A block ending in a bare Load followed by a block starting with Add
  // must not fuse across the boundary.
  Module M;
  Function &F = M.createFunction("main", 4);
  IRBuilder B(F);
  const uint32_t B0 = B.makeBlock();
  const uint32_t B1 = B.makeBlock();
  B.setBlock(B0);
  B.load(1, 0, 0);
  B.jmp(B1);
  B.setBlock(B1);
  B.binary(Opcode::Add, 2, 1, 1);
  B.halt();

  const std::unique_ptr<DecodedFunction> DF = decodeFunction(F);
  EXPECT_EQ(DF->Insts[DF->pcOf(0, 0)].Op, XOp::Load);
  EXPECT_EQ(DF->Insts[DF->pcOf(1, 0)].Op, XOp::Add);
}

TEST(ThreadedBackend, ExecutesFusedLoopExactly) {
  const Module M = makeLoopModule(1000);
  std::vector<uint64_t> Memory(32, 0);

  oracle::Machine Ref(M, Memory);
  ThreadedBackend Thr(M, Memory);
  EXPECT_EQ(Ref.run(~0ull >> 1), oracle::Status::Halted);
  EXPECT_EQ(Thr.run(~0ull >> 1), StopReason::Halted);
  EXPECT_EQ(Thr.loadWord(16), 7000u);
  difftest::expectSameState(Thr, Ref, "fused loop");
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

  // Run A partway (mid-loop, likely mid-fused-pair), transplant its
  // position into B along with memory, and let both finish.
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
