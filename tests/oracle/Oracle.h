//===- tests/oracle/Oracle.h - Definitional SimIR interpreter ---*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The test oracle for the execution engine: SimIR's semantics written
/// down directly from ir/Opcode.h and DESIGN.md §7, one source instruction
/// per step() with one switch case per opcode -- no decoding, no fusion,
/// no block charging, no templates.  Each activation owns its zeroed
/// register file; memory is a flat word image that reads 0 beyond its end,
/// grows on stores, and faults on stores at or past the memory cap; a call
/// past the depth limit faults.  A faulting instruction still retires.
///
/// Every branch, load, store, call, and return is logged with the number
/// of instructions completed before it, and when a CoreTiming is attached
/// every retired instruction is charged one at a time, with the event
/// rules applied in program order.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_TESTS_ORACLE_ORACLE_H
#define SPECCTRL_TESTS_ORACLE_ORACLE_H

#include "ir/Function.h"
#include "mssp/CoreTiming.h"

#include <cstdint>
#include <vector>

namespace specctrl {
namespace oracle {

/// One observable event, in program order.
struct Event {
  enum Kind : uint8_t { Branch, Load, Store, Call, Return };
  Kind K = Branch;
  /// Branch: site, taken.  Load / Store: address, value.  Call / Return:
  /// the callee (for Return, the function returning).
  uint64_t A = 0;
  uint64_t B = 0;
  /// Instructions completed before the one raising the event.
  uint64_t Done = 0;
  /// Source location of the instruction raising the event.
  uint32_t Func = 0;
  uint32_t Block = 0;
  uint32_t Index = 0;

  bool operator==(const Event &) const = default;
};

enum class Status { Running, Halted, Fault };

/// One activation: the code version it runs, the next instruction, and its
/// own register file.
struct Frame {
  const ir::Function *Code = nullptr;
  uint32_t FuncId = 0;
  uint32_t Block = 0;
  uint32_t Index = 0;
  std::vector<uint64_t> Regs;
};

class Machine {
public:
  static constexpr size_t MaxCallDepth = 256;
  static constexpr uint64_t MaxMemoryWords = 1ull << 28;

  /// Starts at the entry of \p M's entry function.  \p Timing, when set,
  /// is charged per instruction.
  Machine(const ir::Module &M, std::vector<uint64_t> Memory,
          mssp::CoreTiming *Timing = nullptr);

  /// Calls of \p FuncId run \p F from now on (nullptr: the original).
  void setCodeVersion(uint32_t FuncId, const ir::Function *F);

  /// Executes one instruction; returns the machine's status after it.
  Status step();
  /// Steps until the machine stops running or \p MaxSteps have executed.
  Status run(uint64_t MaxSteps);

  Status status() const { return State; }
  uint64_t load(uint64_t Addr) const {
    return Addr < Memory.size() ? Memory[Addr] : 0;
  }

  std::vector<uint64_t> Memory;
  std::vector<Frame> Stack;
  uint64_t InstRet = 0;
  std::vector<Event> Events;

private:
  const ir::Module &Mod;
  std::vector<const ir::Function *> Code;
  mssp::CoreTiming *Timing;
  Status State = Status::Running;
};

} // namespace oracle
} // namespace specctrl

#endif // SPECCTRL_TESTS_ORACLE_ORACLE_H
