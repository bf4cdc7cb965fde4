//===- ir/Opcode.h - SimIR opcode definitions -------------------*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Opcodes of SimIR, the small RISC-like register-machine IR that stands in
/// for the paper's Alpha binaries.  SimIR programs are synthesized from
/// workload models, interpreted functionally, and transformed by the
/// distiller (speculative dynamic optimizer).
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_IR_OPCODE_H
#define SPECCTRL_IR_OPCODE_H

#include <cassert>
#include <cstdint>

namespace specctrl {
namespace ir {

/// SimIR operation codes.  Registers are function-local 64-bit integers;
/// memory is a flat 64-bit-word address space shared by all functions.
enum class Opcode : uint8_t {
  Nop,     ///< no operation
  MovImm,  ///< rd = imm
  Mov,     ///< rd = ra
  Add,     ///< rd = ra + rb
  AddImm,  ///< rd = ra + imm
  Sub,     ///< rd = ra - rb
  Mul,     ///< rd = ra * rb
  And,     ///< rd = ra & rb
  Or,      ///< rd = ra | rb
  Xor,     ///< rd = ra ^ rb
  Shl,     ///< rd = ra << (rb & 63)
  Shr,     ///< rd = ra >> (rb & 63)  (logical)
  CmpLt,   ///< rd = (int64)ra <  (int64)rb ? 1 : 0
  CmpLtImm,///< rd = (int64)ra <  imm       ? 1 : 0
  CmpEq,   ///< rd = ra == rb ? 1 : 0
  CmpEqImm,///< rd = ra == imm ? 1 : 0
  Load,    ///< rd = mem[ra + imm]
  Store,   ///< mem[ra + imm] = rb
  Br,      ///< if (ra != 0) goto then-target else goto else-target
  Jmp,     ///< goto then-target
  Call,    ///< call function #callee (fresh zeroed register frame)
  Ret,     ///< return from the current function
  Halt,    ///< stop the program
};

/// Returns the mnemonic for \p Op, e.g. "cmplt".
const char *opcodeName(Opcode Op);

/// True for instructions that must terminate a basic block.
inline bool isTerminator(Opcode Op) {
  return Op == Opcode::Br || Op == Opcode::Jmp || Op == Opcode::Ret ||
         Op == Opcode::Halt;
}

/// True if the opcode writes a destination register.
inline bool writesRegister(Opcode Op) {
  switch (Op) {
  case Opcode::MovImm:
  case Opcode::Mov:
  case Opcode::Add:
  case Opcode::AddImm:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::Shr:
  case Opcode::CmpLt:
  case Opcode::CmpLtImm:
  case Opcode::CmpEq:
  case Opcode::CmpEqImm:
  case Opcode::Load:
    return true;
  default:
    return false;
  }
}

/// True if the opcode has an effect beyond its destination register
/// (memory writes, control flow, calls).  Such instructions are DCE roots.
inline bool hasSideEffects(Opcode Op) {
  return Op == Opcode::Store || Op == Opcode::Call || isTerminator(Op);
}

/// Number of register *source* operands the opcode reads (0..2).  Operand A
/// is counted for single-source forms.
unsigned numRegSources(Opcode Op);

/// Evaluates a two-source ALU opcode on known operands with the
/// interpreter's exact semantics: wrap-around 64-bit arithmetic, signed
/// less-than, shift counts masked to 6 bits.  An immediate form (AddImm,
/// CmpLtImm, CmpEqImm) takes its immediate as \p B.  The one constant
/// evaluator of the distiller and the analyses.
inline uint64_t evalBinary(Opcode Op, uint64_t A, uint64_t B) {
  switch (Op) {
  case Opcode::Add:
  case Opcode::AddImm:
    return A + B;
  case Opcode::Sub:
    return A - B;
  case Opcode::Mul:
    return A * B;
  case Opcode::And:
    return A & B;
  case Opcode::Or:
    return A | B;
  case Opcode::Xor:
    return A ^ B;
  case Opcode::Shl:
    return A << (B & 63);
  case Opcode::Shr:
    return A >> (B & 63);
  case Opcode::CmpLt:
  case Opcode::CmpLtImm:
    return static_cast<int64_t>(A) < static_cast<int64_t>(B) ? 1 : 0;
  case Opcode::CmpEq:
  case Opcode::CmpEqImm:
    return A == B ? 1 : 0;
  default:
    assert(false && "not a two-source ALU opcode");
    return 0;
  }
}

} // namespace ir
} // namespace specctrl

#endif // SPECCTRL_IR_OPCODE_H
