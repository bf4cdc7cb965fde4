//===- tests/exec/InterpreterSemanticsTest.cpp ----------------------------===//
//
// Edge-case semantics of the SimIR interpreter: shift masking, wrapping
// arithmetic, signed comparisons at the boundaries, and position
// adoption.
//
//===----------------------------------------------------------------------===//

#include "exec/ThreadedBackend.h"

#include "ir/IRBuilder.h"

#include <gtest/gtest.h>

#include <functional>

using namespace specctrl;
using namespace specctrl::exec;
using namespace specctrl::ir;

namespace {

/// Runs a single-block program and returns the words at 32..40.
std::vector<uint64_t> runProgram(const std::function<void(IRBuilder &)> &Body) {
  Module M;
  Function &F = M.createFunction("main", 8);
  IRBuilder B(F);
  B.setBlock(B.makeBlock());
  Body(B);
  B.halt();
  ThreadedBackend I(M, std::vector<uint64_t>(64, 0));
  EXPECT_EQ(I.run(100000), StopReason::Halted);
  std::vector<uint64_t> Out;
  for (uint64_t A = 32; A < 40; ++A)
    Out.push_back(I.loadWord(A));
  return Out;
}

} // namespace

TEST(InterpreterSemanticsTest, ShiftAmountsMaskTo63) {
  const auto Mem = runProgram([](IRBuilder &B) {
    B.movImm(1, 1);
    B.movImm(2, 64); // 64 & 63 == 0: shift by zero
    B.binary(Opcode::Shl, 3, 1, 2);
    B.store(0, 32, 3);
    B.movImm(2, 65); // 65 & 63 == 1
    B.binary(Opcode::Shl, 3, 1, 2);
    B.store(0, 33, 3);
    B.movImm(1, -1);
    B.movImm(2, 63);
    B.binary(Opcode::Shr, 3, 1, 2); // logical shift
    B.store(0, 34, 3);
  });
  EXPECT_EQ(Mem[0], 1u);
  EXPECT_EQ(Mem[1], 2u);
  EXPECT_EQ(Mem[2], 1u);
}

TEST(InterpreterSemanticsTest, WrappingArithmetic) {
  const auto Mem = runProgram([](IRBuilder &B) {
    B.movImm(1, INT64_MAX);
    B.movImm(2, 1);
    B.binary(Opcode::Add, 3, 1, 2);
    B.store(0, 32, 3);
    B.movImm(1, 0);
    B.binary(Opcode::Sub, 3, 1, 2); // 0 - 1
    B.store(0, 33, 3);
    B.movImm(1, INT64_MIN);
    B.movImm(2, -1);
    B.binary(Opcode::Mul, 3, 1, 2); // INT64_MIN * -1 wraps
    B.store(0, 34, 3);
  });
  EXPECT_EQ(Mem[0], static_cast<uint64_t>(INT64_MAX) + 1);
  EXPECT_EQ(Mem[1], ~0ull);
  EXPECT_EQ(Mem[2], static_cast<uint64_t>(INT64_MIN));
}

TEST(InterpreterSemanticsTest, SignedComparisonBoundaries) {
  const auto Mem = runProgram([](IRBuilder &B) {
    B.movImm(1, INT64_MIN);
    B.movImm(2, INT64_MAX);
    B.binary(Opcode::CmpLt, 3, 1, 2); // MIN < MAX
    B.store(0, 32, 3);
    B.binary(Opcode::CmpLt, 3, 2, 1); // MAX < MIN
    B.store(0, 33, 3);
    B.cmpLtImm(3, 1, 0); // MIN < 0
    B.store(0, 34, 3);
    B.movImm(1, -1);
    B.cmpEqImm(3, 1, -1);
    B.store(0, 35, 3);
  });
  EXPECT_EQ(Mem[0], 1u);
  EXPECT_EQ(Mem[1], 0u);
  EXPECT_EQ(Mem[2], 1u);
  EXPECT_EQ(Mem[3], 1u);
}

TEST(InterpreterSemanticsTest, AdoptPositionTransplantsExecution) {
  // Two interpreters over the same module: adopt mid-run, then both end
  // with identical registers-visible-through-memory behavior.
  Module M;
  Function &F = M.createFunction("main", 4);
  IRBuilder B(F);
  const uint32_t Header = B.makeBlock();
  const uint32_t Body = B.makeBlock();
  const uint32_t Exit = B.makeBlock();
  B.setBlock(Header);
  B.cmpLtImm(2, 1, 100);
  B.br(2, Body, Exit, 1);
  B.setBlock(Body);
  B.addImm(1, 1, 1);
  B.store(0, 10, 1);
  B.jmp(Header);
  B.setBlock(Exit);
  B.halt();

  ThreadedBackend A(M, std::vector<uint64_t>(32, 0));
  ASSERT_EQ(A.run(150), StopReason::FuelExhausted);

  ThreadedBackend Clone(M, std::vector<uint64_t>(32, 0));
  Clone.adoptPositionFrom(A);
  // Memory is reconciled by the caller in MSSP; here copy it wholesale.
  for (uint64_t Addr = 0; Addr < 32; ++Addr)
    Clone.storeWord(Addr, A.loadWord(Addr));

  ASSERT_EQ(A.run(~0ull >> 1), StopReason::Halted);
  ASSERT_EQ(Clone.run(~0ull >> 1), StopReason::Halted);
  EXPECT_EQ(A.loadWord(10), Clone.loadWord(10));
  EXPECT_EQ(A.loadWord(10), 100u);
}

TEST(InterpreterSemanticsTest, NopAndMovForms) {
  const auto Mem = runProgram([](IRBuilder &B) {
    B.movImm(1, 77);
    B.mov(2, 1);
    B.binary(Opcode::And, 3, 1, 2);
    B.binary(Opcode::Or, 4, 1, 2);
    B.binary(Opcode::Xor, 5, 1, 2);
    B.store(0, 32, 3);
    B.store(0, 33, 4);
    B.store(0, 34, 5);
  });
  EXPECT_EQ(Mem[0], 77u);
  EXPECT_EQ(Mem[1], 77u);
  EXPECT_EQ(Mem[2], 0u);
}
