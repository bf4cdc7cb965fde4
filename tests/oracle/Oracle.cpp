//===- tests/oracle/Oracle.cpp - Definitional SimIR interpreter -----------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "Oracle.h"

using namespace specctrl;
using namespace specctrl::oracle;
using ir::Opcode;

Machine::Machine(const ir::Module &M, std::vector<uint64_t> Memory,
                 mssp::CoreTiming *Timing)
    : Memory(std::move(Memory)), Mod(M), Timing(Timing) {
  for (uint32_t F = 0; F < M.numFunctions(); ++F)
    Code.push_back(&M.function(F));
  const ir::Function *Entry = Code[M.entry()];
  Stack.push_back({Entry, M.entry(), 0, 0,
                   std::vector<uint64_t>(Entry->numRegs(), 0)});
}

void Machine::setCodeVersion(uint32_t FuncId, const ir::Function *F) {
  Code[FuncId] = F ? F : &Mod.function(FuncId);
}

Status Machine::run(uint64_t MaxSteps) {
  for (uint64_t N = 0; N < MaxSteps && State == Status::Running; ++N)
    step();
  return State;
}

Status Machine::step() {
  if (State != Status::Running)
    return State;

  Frame &F = Stack.back();
  const ir::Instruction I = F.Code->block(F.Block).Insts[F.Index];
  const uint32_t Func = F.FuncId, Block = F.Block, Index = F.Index;
  const uint64_t Done = InstRet;
  auto log = [&](Event::Kind K, uint64_t A, uint64_t B) {
    Events.push_back({K, A, B, Done, Func, Block, Index});
  };
  std::vector<uint64_t> &R = F.Regs;
  // Operands are read only by the opcodes that have them.
  auto ra = [&] { return R[I.SrcA]; };
  auto rb = [&] { return R[I.SrcB]; };
  const uint64_t Imm = static_cast<uint64_t>(I.Imm);

  ++InstRet;
  if (Timing)
    Timing->recordInstruction();
  ++F.Index;

  switch (I.Op) {
  case Opcode::Nop:
    break;
  case Opcode::MovImm:
    R[I.Dest] = Imm;
    break;
  case Opcode::Mov:
    R[I.Dest] = ra();
    break;
  case Opcode::Add:
    R[I.Dest] = ra() + rb();
    break;
  case Opcode::AddImm:
    R[I.Dest] = ra() + Imm;
    break;
  case Opcode::Sub:
    R[I.Dest] = ra() - rb();
    break;
  case Opcode::Mul:
    R[I.Dest] = ra() * rb();
    break;
  case Opcode::And:
    R[I.Dest] = ra() & rb();
    break;
  case Opcode::Or:
    R[I.Dest] = ra() | rb();
    break;
  case Opcode::Xor:
    R[I.Dest] = ra() ^ rb();
    break;
  case Opcode::Shl:
    R[I.Dest] = ra() << (rb() & 63);
    break;
  case Opcode::Shr:
    R[I.Dest] = ra() >> (rb() & 63);
    break;
  case Opcode::CmpLt:
    R[I.Dest] = static_cast<int64_t>(ra()) < static_cast<int64_t>(rb());
    break;
  case Opcode::CmpLtImm:
    R[I.Dest] = static_cast<int64_t>(ra()) < I.Imm;
    break;
  case Opcode::CmpEq:
    R[I.Dest] = ra() == rb();
    break;
  case Opcode::CmpEqImm:
    R[I.Dest] = ra() == Imm;
    break;
  case Opcode::Load: {
    const uint64_t Addr = ra() + Imm;
    R[I.Dest] = load(Addr);
    log(Event::Load, Addr, R[I.Dest]);
    if (Timing)
      Timing->recordMemoryAccess(Addr);
    break;
  }
  case Opcode::Store: {
    const uint64_t Addr = ra() + Imm;
    if (Addr >= MaxMemoryWords)
      return State = Status::Fault;
    if (Addr >= Memory.size())
      Memory.resize(Addr + 1, 0);
    Memory[Addr] = rb();
    log(Event::Store, Addr, rb());
    if (Timing)
      Timing->recordMemoryAccess(Addr);
    break;
  }
  case Opcode::Br: {
    const bool Taken = ra() != 0;
    F.Block = Taken ? I.ThenTarget : I.ElseTarget;
    F.Index = 0;
    log(Event::Branch, I.Site, Taken);
    if (Timing)
      Timing->recordBranch(I.Site, Taken);
    break;
  }
  case Opcode::Jmp:
    F.Block = I.ThenTarget;
    F.Index = 0;
    break;
  case Opcode::Call: {
    if (Stack.size() >= MaxCallDepth)
      return State = Status::Fault;
    const ir::Function *Callee = Code[I.Callee];
    log(Event::Call, I.Callee, 0);
    if (Timing)
      Timing->recordCall(I.Callee);
    // F dangles once the stack grows.
    Stack.push_back({Callee, I.Callee, 0, 0,
                     std::vector<uint64_t>(Callee->numRegs(), 0)});
    break;
  }
  case Opcode::Ret:
    log(Event::Return, Func, 0);
    if (Timing)
      Timing->recordReturn(Func);
    Stack.pop_back();
    if (Stack.empty())
      State = Status::Halted; // returning from the entry function
    break;
  case Opcode::Halt:
    State = Status::Halted;
    break;
  }
  return State;
}
