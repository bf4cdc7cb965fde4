//===- analysis/ConstProp.cpp - Conditional constant facts ----------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/ConstProp.h"

using namespace specctrl;
using namespace specctrl::analysis;
using namespace specctrl::ir;

namespace {

ConstVal meet(const ConstVal &A, const ConstVal &B) {
  if (A.K == ConstVal::Bottom)
    return B;
  if (B.K == ConstVal::Bottom)
    return A;
  if (A.K == ConstVal::Top || B.K == ConstVal::Top)
    return ConstVal::top();
  return A.Value == B.Value ? A : ConstVal::top();
}

/// Applies one instruction to the register lattice.
void applyInstruction(const Instruction &I, std::vector<ConstVal> &Regs) {
  switch (I.Op) {
  case Opcode::MovImm:
    Regs[I.Dest] = ConstVal::constant(static_cast<uint64_t>(I.Imm));
    break;
  case Opcode::Mov:
    Regs[I.Dest] = Regs[I.SrcA];
    break;
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::Shr:
  case Opcode::CmpLt:
  case Opcode::CmpEq: {
    const ConstVal &A = Regs[I.SrcA];
    const ConstVal &B = Regs[I.SrcB];
    Regs[I.Dest] = A.isConst() && B.isConst()
                       ? ConstVal::constant(evalBinary(I.Op, A.Value, B.Value))
                       : ConstVal::top();
    break;
  }
  case Opcode::AddImm:
  case Opcode::CmpLtImm:
  case Opcode::CmpEqImm: {
    const ConstVal &A = Regs[I.SrcA];
    Regs[I.Dest] = A.isConst()
                       ? ConstVal::constant(evalBinary(
                             I.Op, A.Value, static_cast<uint64_t>(I.Imm)))
                       : ConstVal::top();
    break;
  }
  case Opcode::Load:
    // Memory contents are outside this lattice.
    Regs[I.Dest] = ConstVal::top();
    break;
  default:
    // Stores, calls (callee frames are separate; caller registers are
    // preserved across calls), and terminators leave registers alone.
    break;
  }
}

} // namespace

ConstantFacts::ConstantFacts(const CFGInfo &G) : G(&G) {
  const Function &F = G.function();
  const uint32_t N = F.numBlocks();
  Executable.assign(N, false);
  In.assign(N, {});
  if (N == 0)
    return;

  // Entry: frames are zero-initialized, so every register starts Const(0).
  Executable[0] = true;
  In[0].assign(F.numRegs(), ConstVal::constant(0));

  std::vector<bool> Queued(N, false);
  std::vector<uint32_t> Work = {0};
  Queued[0] = true;

  while (!Work.empty()) {
    const uint32_t B = Work.back();
    Work.pop_back();
    Queued[B] = false;

    // Run the block, then push state along the executable out-edges.
    std::vector<ConstVal> Regs = In[B];
    const BasicBlock &BB = F.block(B);
    for (const Instruction &I : BB.Insts)
      applyInstruction(I, Regs);

    const Instruction &Term = BB.terminator();
    std::vector<uint32_t> Targets;
    if (Term.Op == Opcode::Br) {
      const ConstVal Cond = Regs[Term.SrcA];
      if (Cond.isConst())
        Targets.push_back(Cond.Value != 0 ? Term.ThenTarget
                                          : Term.ElseTarget);
      else {
        Targets.push_back(Term.ThenTarget);
        if (Term.ElseTarget != Term.ThenTarget)
          Targets.push_back(Term.ElseTarget);
      }
    } else if (Term.Op == Opcode::Jmp) {
      Targets.push_back(Term.ThenTarget);
    }

    for (uint32_t T : Targets) {
      bool Changed = false;
      if (!Executable[T]) {
        Executable[T] = true;
        In[T] = Regs;
        Changed = true;
      } else {
        for (size_t R = 0; R < Regs.size(); ++R) {
          const ConstVal Met = meet(In[T][R], Regs[R]);
          if (Met != In[T][R]) {
            In[T][R] = Met;
            Changed = true;
          }
        }
      }
      if (Changed && !Queued[T]) {
        Queued[T] = true;
        Work.push_back(T);
      }
    }
  }
}

std::vector<ConstVal> ConstantFacts::transferTo(uint32_t Block,
                                                uint32_t Index) const {
  std::vector<ConstVal> Regs = In[Block];
  const BasicBlock &BB = G->function().block(Block);
  for (uint32_t I = 0; I < Index && I < BB.size(); ++I)
    applyInstruction(BB.Insts[I], Regs);
  return Regs;
}

ConstVal ConstantFacts::valueAt(uint32_t Block, uint32_t Index,
                                uint8_t Reg) const {
  if (!Executable[Block])
    return ConstVal::bottom();
  return transferTo(Block, Index)[Reg];
}

ConstVal ConstantFacts::branchCondition(uint32_t Block) const {
  if (!Executable[Block])
    return ConstVal::bottom();
  const BasicBlock &BB = G->function().block(Block);
  const Instruction &Term = BB.terminator();
  if (Term.Op != Opcode::Br)
    return ConstVal::top();
  return valueAt(Block, static_cast<uint32_t>(BB.size()) - 1, Term.SrcA);
}
