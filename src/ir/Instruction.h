//===- ir/Instruction.h - SimIR instruction representation ------*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SimIR instruction: a fixed-size POD carrying an opcode, up to three
/// register operands, an immediate, branch targets (block indices within the
/// enclosing function), a callee id, and -- for conditional branches -- a
/// global static branch *site id* used by profiling and speculation control.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_IR_INSTRUCTION_H
#define SPECCTRL_IR_INSTRUCTION_H

#include "ir/Opcode.h"

#include <cassert>
#include <cstdint>

namespace specctrl {
namespace ir {

/// Identifies a static conditional-branch site across the whole program.
/// Site ids are stable across code versions: the distilled copy of a branch
/// keeps the site id of the original, which is what lets the controller
/// track one behavior across re-optimizations.
using SiteId = uint32_t;

/// Sentinel for "no site" (non-branch instructions).
inline constexpr SiteId InvalidSite = ~SiteId(0);

/// A single SimIR instruction.
struct Instruction {
  Opcode Op = Opcode::Nop;
  uint8_t Dest = 0; ///< destination register (if writesRegister(Op))
  uint8_t SrcA = 0; ///< first source register
  uint8_t SrcB = 0; ///< second source register
  int64_t Imm = 0;  ///< immediate operand / address offset
  uint32_t ThenTarget = 0; ///< Br taken / Jmp target (block index)
  uint32_t ElseTarget = 0; ///< Br not-taken target (block index)
  uint32_t Callee = 0;     ///< Call target (function id)
  SiteId Site = InvalidSite; ///< static branch site (Br only)

  // -- Constructors for each instruction shape ----------------------------

  static Instruction makeNop() { return {}; }

  static Instruction makeMovImm(uint8_t Rd, int64_t Value) {
    Instruction I;
    I.Op = Opcode::MovImm;
    I.Dest = Rd;
    I.Imm = Value;
    return I;
  }

  static Instruction makeMov(uint8_t Rd, uint8_t Ra) {
    Instruction I;
    I.Op = Opcode::Mov;
    I.Dest = Rd;
    I.SrcA = Ra;
    return I;
  }

  static Instruction makeBinary(Opcode Op, uint8_t Rd, uint8_t Ra,
                                uint8_t Rb) {
    assert(numRegSources(Op) == 2 && ir::writesRegister(Op) &&
           "not a two-source ALU opcode");
    Instruction I;
    I.Op = Op;
    I.Dest = Rd;
    I.SrcA = Ra;
    I.SrcB = Rb;
    return I;
  }

  static Instruction makeBinaryImm(Opcode Op, uint8_t Rd, uint8_t Ra,
                                   int64_t Imm) {
    assert((Op == Opcode::AddImm || Op == Opcode::CmpLtImm ||
            Op == Opcode::CmpEqImm) &&
           "not an immediate ALU opcode");
    Instruction I;
    I.Op = Op;
    I.Dest = Rd;
    I.SrcA = Ra;
    I.Imm = Imm;
    return I;
  }

  static Instruction makeLoad(uint8_t Rd, uint8_t RaBase, int64_t Offset) {
    Instruction I;
    I.Op = Opcode::Load;
    I.Dest = Rd;
    I.SrcA = RaBase;
    I.Imm = Offset;
    return I;
  }

  static Instruction makeStore(uint8_t RaBase, int64_t Offset,
                               uint8_t RbValue) {
    Instruction I;
    I.Op = Opcode::Store;
    I.SrcA = RaBase;
    I.SrcB = RbValue;
    I.Imm = Offset;
    return I;
  }

  static Instruction makeBr(uint8_t RaCond, uint32_t ThenBlock,
                            uint32_t ElseBlock, SiteId Site) {
    Instruction I;
    I.Op = Opcode::Br;
    I.SrcA = RaCond;
    I.ThenTarget = ThenBlock;
    I.ElseTarget = ElseBlock;
    I.Site = Site;
    return I;
  }

  static Instruction makeJmp(uint32_t Target) {
    Instruction I;
    I.Op = Opcode::Jmp;
    I.ThenTarget = Target;
    return I;
  }

  static Instruction makeCall(uint32_t FunctionId) {
    Instruction I;
    I.Op = Opcode::Call;
    I.Callee = FunctionId;
    return I;
  }

  static Instruction makeRet() {
    Instruction I;
    I.Op = Opcode::Ret;
    return I;
  }

  static Instruction makeHalt() {
    Instruction I;
    I.Op = Opcode::Halt;
    return I;
  }

  bool isTerminator() const { return ir::isTerminator(Op); }
  bool writesRegister() const { return ir::writesRegister(Op); }
  bool hasSideEffects() const { return ir::hasSideEffects(Op); }
  bool isConditionalBranch() const { return Op == Opcode::Br; }
};

} // namespace ir
} // namespace specctrl

#endif // SPECCTRL_IR_INSTRUCTION_H
