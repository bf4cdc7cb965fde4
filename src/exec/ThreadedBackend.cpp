//===- exec/ThreadedBackend.cpp - The SimIR execution engine --------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "exec/ThreadedBackend.h"

#include "ir/Verifier.h"
#include "support/RunConfig.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

using namespace specctrl;
using namespace specctrl::exec;

// The plain prefix of XOp mirrors ir::Opcode, so decode of an unfused
// instruction is a cast.  Pin the correspondence.
static_assert(static_cast<unsigned>(XOp::Nop) ==
                  static_cast<unsigned>(ir::Opcode::Nop) &&
              static_cast<unsigned>(XOp::CmpLtImm) ==
                  static_cast<unsigned>(ir::Opcode::CmpLtImm) &&
              static_cast<unsigned>(XOp::Load) ==
                  static_cast<unsigned>(ir::Opcode::Load) &&
              static_cast<unsigned>(XOp::Halt) ==
                  static_cast<unsigned>(ir::Opcode::Halt),
              "plain XOp values must mirror ir::Opcode");

namespace {

/// Fusion table: true when the adjacent pair (\p A, \p B) has a fused
/// handler, with the superinstruction in \p Out.  Pairs are fused
/// unconditionally on opcode shape -- the fused handlers execute both
/// halves exactly, so no operand relation needs to hold.
bool fusePair(XOp A, XOp B, XOp &Out) {
  switch (A) {
  case XOp::CmpLt:
    if (B == XOp::Br) {
      Out = XOp::FCmpLtBr;
      return true;
    }
    return false;
  case XOp::CmpLtImm:
    if (B == XOp::Br) {
      Out = XOp::FCmpLtImmBr;
      return true;
    }
    return false;
  case XOp::CmpEq:
    if (B == XOp::Br) {
      Out = XOp::FCmpEqBr;
      return true;
    }
    return false;
  case XOp::CmpEqImm:
    if (B == XOp::Br) {
      Out = XOp::FCmpEqImmBr;
      return true;
    }
    return false;
  case XOp::Load:
    if (B == XOp::Add) {
      Out = XOp::FLoadAdd;
      return true;
    }
    if (B == XOp::AddImm) {
      Out = XOp::FLoadAddImm;
      return true;
    }
    return false;
  case XOp::Add:
    if (B == XOp::Store) {
      Out = XOp::FAddStore;
      return true;
    }
    return false;
  case XOp::AddImm:
    if (B == XOp::Store) {
      Out = XOp::FAddImmStore;
      return true;
    }
    return false;
  case XOp::Xor:
    if (B == XOp::Store) {
      Out = XOp::FXorStore;
      return true;
    }
    return false;
  default:
    return false;
  }
}

} // namespace

std::unique_ptr<DecodedFunction> exec::decodeFunction(const ir::Function &F) {
  auto DF = std::make_unique<DecodedFunction>();
  DF->Src = &F;
  DF->NumRegs = F.numRegs();

  DF->BlockStart.resize(F.numBlocks() + 1);
  uint32_t PC = 0;
  for (uint32_t B = 0; B < F.numBlocks(); ++B) {
    DF->BlockStart[B] = PC;
    PC += static_cast<uint32_t>(F.block(B).size());
  }
  DF->BlockStart[F.numBlocks()] = PC;
  DF->Insts.reserve(PC);

  for (uint32_t B = 0; B < F.numBlocks(); ++B) {
    const ir::BasicBlock &BB = F.block(B);
    for (uint32_t Idx = 0; Idx < BB.size(); ++Idx) {
      const ir::Instruction &I = BB.Insts[Idx];
      DecodedInst D;
      D.Op = static_cast<XOp>(I.Op);
      D.D = I.Dest;
      D.A = I.SrcA;
      D.B = I.SrcB;
      D.Imm = I.Imm;
      D.Site = I.Site;
      D.Callee = I.Callee;
      D.Block = B;
      D.Index = Idx;
      if (I.Op == ir::Opcode::Br) {
        D.ThenPC = DF->BlockStart[I.ThenTarget];
        D.ElsePC = DF->BlockStart[I.ElseTarget];
      } else if (I.Op == ir::Opcode::Jmp) {
        D.ThenPC = DF->BlockStart[I.ThenTarget];
      }
      DF->Insts.push_back(D);
    }
  }

  // Fusion peephole: rewrite pair heads in place.  Non-overlapping greedy
  // left-to-right within each block; the second half keeps its plain entry
  // (it is both the fused handler's operand source and the resume point).
  for (uint32_t B = 0; B < F.numBlocks(); ++B) {
    const uint32_t Start = DF->BlockStart[B];
    const uint32_t Size = static_cast<uint32_t>(F.block(B).size());
    for (uint32_t Idx = 0; Idx + 1 < Size;) {
      XOp Fused;
      if (fusePair(DF->Insts[Start + Idx].Op, DF->Insts[Start + Idx + 1].Op,
                   Fused)) {
        DF->Insts[Start + Idx].Op = Fused;
        Idx += 2;
      } else {
        ++Idx;
      }
    }
  }
  return DF;
}

ThreadedBackend::ThreadedBackend(const ir::Module &M,
                                 std::vector<uint64_t> Memory)
    : Mod(M), ModGeneration(M.generation()), Memory(std::move(Memory)) {
  assert(M.numFunctions() > 0 && "module has no functions");
  CodeMap.resize(M.numFunctions());
  VersionMap.resize(M.numFunctions());
  for (uint32_t F = 0; F < M.numFunctions(); ++F) {
    VersionMap[F] = &M.function(F);
    CodeMap[F] = decodedFor(VersionMap[F]);
  }

  const DecodedFunction *Entry = CodeMap[M.entry()];
  Stack.push_back({Entry, M.entry(), 0, 0, 0, 0});
  RegStack.assign(Entry->NumRegs, 0);
}

const DecodedFunction *ThreadedBackend::decodedFor(const ir::Function *F) {
  // Stale-handle guard, always on (release builds drop asserts): decoded
  // streams hold pointers into Function bodies, and Module::createFunction
  // invalidates every outstanding Function reference.  A backend must be
  // constructed after the module stops growing.
  if (Mod.generation() != ModGeneration) {
    std::fprintf(stderr,
                 "specctrl: module mutated (generation %llu -> %llu) under a "
                 "live threaded backend; cached Function handles are stale\n",
                 static_cast<unsigned long long>(ModGeneration),
                 static_cast<unsigned long long>(Mod.generation()));
    std::abort();
  }
  auto It = Decoded.find(F);
  if (It != Decoded.end())
    return It->second.get();
  auto DF = decodeFunction(*F);
  const DecodedFunction *Out = DF.get();
  Decoded.emplace(F, std::move(DF));
  return Out;
}

void ThreadedBackend::setCodeVersion(uint32_t FuncId, const ir::Function *F) {
  assert(FuncId < CodeMap.size() && "function id out of range");
  const ir::Function *Version = F ? F : &Mod.function(FuncId);
  assert(Version->numRegs() <= ir::Function::MaxRegs && "bad code version");
  // Deploy-time gate (RunConfig.VerifyDistill): never dispatch into a
  // structurally broken code version.
  if (F && RunConfig::global().VerifyDistill) {
    std::string Err;
    if (!ir::verifyFunction(*F, &Err)) {
      std::fprintf(stderr,
                   "specctrl: refusing to dispatch malformed code version "
                   "for function %u: %s\n",
                   FuncId, Err.c_str());
      std::abort();
    }
  }
  VersionMap[FuncId] = Version;
  CodeMap[FuncId] = decodedFor(Version);
}

const ir::Function &ThreadedBackend::codeFor(uint32_t FuncId) const {
  assert(FuncId < VersionMap.size() && "function id out of range");
  return *VersionMap[FuncId];
}

StopReason ThreadedBackend::run(uint64_t MaxInstructions) {
  NoEvents Policy;
  return run(MaxInstructions, Policy);
}

ArchPosition ThreadedBackend::archPosition() const {
  ArchPosition Out;
  Out.Frames.reserve(Stack.size());
  for (const DecodedFrame &F : Stack)
    Out.Frames.push_back({F.DF->Src, F.FuncId, F.Block, F.Index, F.RegBase});
  Out.Regs = RegStack;
  Out.Halted = Halted;
  Out.Faulted = Faulted;
  return Out;
}

void ThreadedBackend::setArchPosition(const ArchPosition &Position) {
  Stack.clear();
  Stack.reserve(Position.Frames.size());
  for (const ArchFrame &AF : Position.Frames) {
    assert(AF.Code && "arch frame without a code version");
    const DecodedFunction *DF = decodedFor(AF.Code);
    Stack.push_back({DF, AF.FuncId, DF->pcOf(AF.Block, AF.Index), AF.RegBase,
                     AF.Block, AF.Index});
  }
  RegStack = Position.Regs;
  Halted = Position.Halted;
  Faulted = Position.Faulted;
}
