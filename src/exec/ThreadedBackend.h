//===- exec/ThreadedBackend.h - The SimIR execution engine ------*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SimIR execution engine: one direct-threaded (computed-goto)
/// dispatch loop over a pre-decoded, flattened instruction stream.  Each
/// code version is decoded once into a DecodedFunction -- operands widened
/// into fixed slots, branch targets resolved to decoded-PC offsets, blocks
/// concatenated into one array -- and then executes with a single indirect
/// jump per instruction (token threading: each handler re-dispatches
/// through the opcode label table).
///
/// Superinstruction fusion: adjacent pairs the distiller's straightened
/// code produces in bulk (cmp+br, load+op, op+store) are rewritten at
/// decode time into one fused handler at the pair head.  Decoded entries
/// stay 1:1 with source instructions -- the second instruction of a pair
/// keeps its own unfused entry -- so a fused handler reads its second
/// half's operands from IP[1], a mid-pair stop or fuel cut lands on a real
/// instruction, and decoded PC <-> (block, index) stays bijective.
///
/// Block-charged retirement: the loop keeps no per-instruction
/// bookkeeping.  On entry to a block (and after every control transfer) it
/// charges the remaining straight-line stretch [IP, block end) against the
/// fuel budget in one step and remembers the charge horizon in LimitIP;
/// plain handlers then run with one pointer bump and an IP == LimitIP test
/// folded into the dispatch jump.  Early exits refund the charged but
/// unexecuted tail, so instructionsRetired() is exact at every exit.
///
/// The policy: run() is templated on a statically dispatched policy that
/// sees only events -- noteBranch, noteLoad, noteStore, noteCall,
/// noteReturn -- plus, once per run, noteRetired with the number of
/// instructions the run retired.  Hooks that need the completed-
/// instruction count (the reactive controller's monitor windows key off
/// it) get `Done`: the instructions completed before the one raising the
/// event.  Derive a policy from NoEvents and hide the hooks it needs.  Two
/// kinds exist: no timing (NoEvents itself, the branch-event adapter, the
/// value profiler) and CoreTiming charged in block quanta
/// (mssp::TimingPolicy, which bulk-charges issue cost from noteRetired).
/// A policy may call requestStop() from any event hook; the loop honors
/// it right after that event's instruction.
///
/// Exactness is checked against the definitional interpreter in
/// tests/oracle: every event, Done count, StopReason, memory word,
/// position, and cycle count, under fuel slicing and stop/resume.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_EXEC_THREADEDBACKEND_H
#define SPECCTRL_EXEC_THREADEDBACKEND_H

#include "ir/Function.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

// Token-threaded dispatch requires the GNU address-of-label extension; a
// portable switch loop with identical semantics is kept as the fallback.
#if defined(__GNUC__) || defined(__clang__)
#define SPECCTRL_EXEC_COMPUTED_GOTO 1
#else
#define SPECCTRL_EXEC_COMPUTED_GOTO 0
#endif

namespace specctrl {
namespace exec {

/// Identifies a static instruction across code versions.
struct InstLocation {
  uint32_t Func = 0;
  uint32_t Block = 0;
  uint32_t Index = 0;
};

/// Why run() returned.
enum class StopReason {
  Halted,        ///< the program executed Halt (or returned from its entry)
  FuelExhausted, ///< the instruction budget ran out (resumable)
  Stopped,       ///< a policy called requestStop() (resumable)
  Fault,         ///< memory past the cap or call-stack overflow
};

/// The policy with every hook a no-op.  Policies derive from it and hide
/// the hooks they need; the loop calls them through the concrete type, so
/// unused hooks compile away.
struct NoEvents {
  /// A conditional branch resolved.
  void noteBranch(ir::SiteId /*Site*/, bool /*Taken*/, uint64_t /*Done*/) {}
  /// A load retired.
  void noteLoad(const InstLocation & /*L*/, uint64_t /*Addr*/,
                uint64_t /*Value*/, uint64_t /*Done*/) {}
  /// A store retired (the old memory value is not reported).
  void noteStore(uint64_t /*Addr*/, uint64_t /*Value*/) {}
  void noteCall(uint32_t /*Callee*/) {}
  void noteReturn(uint32_t /*Callee*/) {}
  /// Called once as run() returns, with the instructions it retired.
  void noteRetired(uint64_t /*Instructions*/) {}
};

/// One activation record in source coordinates: the code version it
/// executes, its position, and its register window base.
struct ArchFrame {
  const ir::Function *Code = nullptr;
  uint32_t FuncId = 0;
  uint32_t Block = 0;
  uint32_t Index = 0;
  uint32_t RegBase = 0;
};

/// The full architectural position minus memory: call stack, register
/// stack, and termination flags.  Memory is reconciled separately by the
/// caller (MSSP recovery copies only the written words).
struct ArchPosition {
  std::vector<ArchFrame> Frames;
  std::vector<uint64_t> Regs;
  bool Halted = false;
  bool Faulted = false;
};

/// Decoded opcode: the plain opcodes in ir::Opcode order, then the fused
/// superinstructions.  Values index the dispatch table.
enum class XOp : uint8_t {
  Nop,
  MovImm,
  Mov,
  Add,
  AddImm,
  Sub,
  Mul,
  And,
  Or,
  Xor,
  Shl,
  Shr,
  CmpLt,
  CmpLtImm,
  CmpEq,
  CmpEqImm,
  Load,
  Store,
  Br,
  Jmp,
  Call,
  Ret,
  Halt,
  // Fused pairs (handler at the pair head; second half's operands are read
  // from the following decoded entry, which keeps its plain XOp).
  FCmpLtBr,    ///< CmpLt    + Br
  FCmpLtImmBr, ///< CmpLtImm + Br
  FCmpEqBr,    ///< CmpEq    + Br
  FCmpEqImmBr, ///< CmpEqImm + Br
  FLoadAdd,    ///< Load     + Add
  FLoadAddImm, ///< Load     + AddImm
  FAddStore,   ///< Add      + Store
  FAddImmStore,///< AddImm   + Store
  FXorStore,   ///< Xor      + Store
};

inline constexpr unsigned NumXOps = static_cast<unsigned>(XOp::FXorStore) + 1;

/// One pre-decoded instruction.  Exactly one entry per source instruction;
/// branch targets are offsets into the enclosing DecodedFunction's stream.
struct DecodedInst {
  XOp Op = XOp::Nop;
  uint8_t D = 0; ///< destination register slot
  uint8_t A = 0; ///< first source register slot
  uint8_t B = 0; ///< second source register slot
  ir::SiteId Site = ir::InvalidSite;
  uint32_t ThenPC = 0;  ///< Br taken / Jmp target as a decoded PC
  uint32_t ElsePC = 0;  ///< Br not-taken target as a decoded PC
  uint32_t Callee = 0;  ///< Call target (function id)
  uint32_t Block = 0;   ///< source coordinates (for events / positions)
  uint32_t Index = 0;
  int64_t Imm = 0;
};

/// One code version, decoded: blocks concatenated in index order, so the
/// decoded PC of (Block, Index) is BlockStart[Block] + Index and every
/// decoded entry carries its source coordinates back.
struct DecodedFunction {
  const ir::Function *Src = nullptr;
  unsigned NumRegs = 1;
  std::vector<DecodedInst> Insts;
  /// Decoded PC of each block's head, plus a final entry one past the last
  /// block -- so block B spans [BlockStart[B], BlockStart[B + 1]), the
  /// stretch the loop charges in one step.
  std::vector<uint32_t> BlockStart;

  uint32_t pcOf(uint32_t Block, uint32_t Index) const {
    assert(Block + 1 < BlockStart.size() && "block out of range");
    return BlockStart[Block] + Index;
  }
};

/// Decodes \p F (which must verify) into a flattened stream with fused
/// superinstructions.  Exposed for tests; execution goes through
/// ThreadedBackend's per-version cache.
std::unique_ptr<DecodedFunction> decodeFunction(const ir::Function &F);

/// A resumable SimIR execution over a module and a flat word memory,
/// positioned at the entry of the module's entry function on
/// construction.  Code versioning: calls dispatch through a per-function
/// code map, so a dynamic optimizer can swap in a distilled version of a
/// function (and back) between runs -- the mechanism behind the paper's
/// "re-optimize and deploy" arc.
class ThreadedBackend {
public:
  ThreadedBackend(const ir::Module &M, std::vector<uint64_t> Memory);

  /// Swaps the code executed for function \p FuncId (nullptr restores the
  /// module's original).  Takes effect at the next call of the function;
  /// active activations keep running their current version.
  void setCodeVersion(uint32_t FuncId, const ir::Function *F);

  /// Returns the code version currently dispatched for \p FuncId.
  const ir::Function &codeFor(uint32_t FuncId) const;

  /// Executes up to \p MaxInstructions instructions, reporting events to
  /// \p Policy (see the file comment).  Resumable: call again to continue.
  template <class PolicyT>
  StopReason run(uint64_t MaxInstructions, PolicyT &Policy);

  /// run() with no events observed.
  StopReason run(uint64_t MaxInstructions);

  /// Requests that run() return after the current instruction retires.
  /// Callable from policy hooks (e.g. to pause at task boundaries).
  void requestStop() { StopFlag = true; }

  /// True once Halt has retired (further run() calls return Halted).
  bool halted() const { return Halted; }
  uint64_t instructionsRetired() const { return InstRet; }

  std::vector<uint64_t> &memory() { return Memory; }
  const std::vector<uint64_t> &memory() const { return Memory; }

  /// Reads a memory word (0 beyond the image, matching load semantics).
  uint64_t loadWord(uint64_t Addr) const {
    return Addr < Memory.size() ? Memory[Addr] : 0;
  }
  /// Writes a memory word, growing the image if needed; addresses past the
  /// memory cap fault instead of growing.
  void storeWord(uint64_t Addr, uint64_t Value) {
    if (Addr >= Memory.size()) {
      if (Addr >= MaxMemoryWords) {
        Faulted = true;
        return;
      }
      Memory.resize(Addr + 1, 0);
    }
    Memory[Addr] = Value;
  }

  /// The position and registers in source coordinates.
  ArchPosition archPosition() const;
  /// Adopts \p Position (call stack, registers, halt flags) -- but not
  /// memory, which the caller reconciles.  The position must come from an
  /// execution of the same module.
  void setArchPosition(const ArchPosition &Position);
  void adoptPositionFrom(const ThreadedBackend &Other) {
    setArchPosition(Other.archPosition());
  }

  static constexpr size_t MaxCallDepth = 256;
  /// Memory images beyond this many words fault instead of growing, so a
  /// corrupted address cannot swallow the host's RAM.
  static constexpr uint64_t MaxMemoryWords = 1ull << 28;

private:
  /// A frame over decoded code.  PC is authoritative while running; Block
  /// and Index are synced whenever the frame can be observed (loop exit,
  /// call push, position export).
  struct DecodedFrame {
    const DecodedFunction *DF = nullptr;
    uint32_t FuncId = 0;
    uint32_t PC = 0;
    uint32_t RegBase = 0;
    uint32_t Block = 0;
    uint32_t Index = 0;
  };

  /// Returns the cached decode of \p F, decoding on first use.  Aborts if
  /// the module was mutated since construction (stale Function handles) --
  /// an always-on check, since release builds compile asserts out.
  const DecodedFunction *decodedFor(const ir::Function *F);

  const ir::Module &Mod;
  uint64_t ModGeneration; ///< Mod.generation() at construction
  /// Per-function currently dispatched version (parallel to VersionMap).
  std::vector<const DecodedFunction *> CodeMap;
  std::vector<const ir::Function *> VersionMap;
  /// Decode cache: one entry per distinct code version ever dispatched.
  std::unordered_map<const ir::Function *, std::unique_ptr<DecodedFunction>>
      Decoded;
  std::vector<uint64_t> Memory;
  std::vector<DecodedFrame> Stack;
  std::vector<uint64_t> RegStack;
  uint64_t InstRet = 0;
  bool Halted = false;
  bool Faulted = false;
  bool StopFlag = false;
};

//===----------------------------------------------------------------------===//
// The dispatch loop
//===----------------------------------------------------------------------===//
//
// Per instruction the semantics are SimIR's (ir/Opcode.h): retire, execute,
// raise the instruction's event, transfer control, then honor a pending
// stop.  Handlers re-derive the frame pointer, code base, and register
// window only at control-flow boundaries.

#if SPECCTRL_EXEC_COMPUTED_GOTO
#define SPECCTRL_XCASE(op) L_##op:
// The block-charge dispatch: one compare against the charge horizon and
// the handler's own indirect jump.  A spent charge goes back through the
// recharger (which also ends the run when fuel is gone).
#define SPECCTRL_XDISPATCH()                                                   \
  do {                                                                         \
    if (IP == LimitIP)                                                         \
      goto Recharge;                                                           \
    goto *Tbl[static_cast<unsigned>(IP->Op)];                                  \
  } while (0)
#else
// Portable fallback: one switch in a loop.  The L_ labels stay so fused
// handlers can fall back to their first half's plain handler.
#define SPECCTRL_XCASE(op)                                                     \
  case XOp::op:                                                                \
  L_##op:
#define SPECCTRL_XDISPATCH() goto Dispatch
#endif

template <class PolicyT>
StopReason ThreadedBackend::run(uint64_t MaxInstructions, PolicyT &Policy) {
  if (Halted)
    return StopReason::Halted;
  if (Faulted || Stack.empty())
    return StopReason::Fault;

  StopFlag = false;
  uint64_t Fuel = MaxInstructions;
  if (Fuel == 0)
    return StopReason::FuelExhausted;

  DecodedFrame *F = &Stack.back();
  const DecodedInst *Code = F->DF->Insts.data();
  /// BlockEnd[B] is one past block B's last decoded PC.
  const uint32_t *BlockEnd = F->DF->BlockStart.data() + 1;
  const DecodedInst *IP = Code + F->PC;
  /// One past the last charged entry.  Invariant: [IP, LimitIP) is charged
  /// (counted in Retired, paid from Fuel) but not yet executed, and both
  /// pointers stay within one frame's code between charges.
  const DecodedInst *LimitIP = IP;
  uint64_t *Regs = RegStack.data() + F->RegBase;
  const uint64_t Start = InstRet;
  uint64_t Retired = InstRet;
  StopReason Reason = StopReason::FuelExhausted;

#if defined(__GNUC__) || defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wunused-label"
#endif

#if SPECCTRL_EXEC_COMPUTED_GOTO
  // Indexed by XOp; must match the enum order exactly.
  static const void *const Tbl[NumXOps] = {
      &&L_Nop,      &&L_MovImm,      &&L_Mov,      &&L_Add,
      &&L_AddImm,   &&L_Sub,         &&L_Mul,      &&L_And,
      &&L_Or,       &&L_Xor,         &&L_Shl,      &&L_Shr,
      &&L_CmpLt,    &&L_CmpLtImm,    &&L_CmpEq,    &&L_CmpEqImm,
      &&L_Load,     &&L_Store,       &&L_Br,       &&L_Jmp,
      &&L_Call,     &&L_Ret,         &&L_Halt,     &&L_FCmpLtBr,
      &&L_FCmpLtImmBr, &&L_FCmpEqBr, &&L_FCmpEqImmBr, &&L_FLoadAdd,
      &&L_FLoadAddImm, &&L_FAddStore, &&L_FAddImmStore, &&L_FXorStore,
  };
#endif

Recharge:
  // IP points at a real, uncharged instruction and the previous charge is
  // fully consumed (LimitIP == IP).
  if (Fuel == 0)
    goto ExitFuel;
  {
    uint64_t N = static_cast<uint64_t>(Code + BlockEnd[IP->Block] - IP);
    if (N > Fuel)
      N = Fuel;
    Fuel -= N;
    Retired += N;
    LimitIP = IP + N;
  }
#if SPECCTRL_EXEC_COMPUTED_GOTO
  goto *Tbl[static_cast<unsigned>(IP->Op)];
#else
  goto Exec;

Dispatch:
  if (IP == LimitIP)
    goto Recharge;
Exec:
  switch (IP->Op) {
#endif

  SPECCTRL_XCASE(Nop) {
    ++IP;
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(MovImm) {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = static_cast<uint64_t>(I.Imm);
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(Mov) {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = Regs[I.A];
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(Add) {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = Regs[I.A] + Regs[I.B];
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(AddImm) {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = Regs[I.A] + static_cast<uint64_t>(I.Imm);
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(Sub) {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = Regs[I.A] - Regs[I.B];
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(Mul) {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = Regs[I.A] * Regs[I.B];
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(And) {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = Regs[I.A] & Regs[I.B];
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(Or) {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = Regs[I.A] | Regs[I.B];
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(Xor) {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = Regs[I.A] ^ Regs[I.B];
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(Shl) {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = Regs[I.A] << (Regs[I.B] & 63);
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(Shr) {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = Regs[I.A] >> (Regs[I.B] & 63);
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(CmpLt) {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = static_cast<int64_t>(Regs[I.A]) <
                        static_cast<int64_t>(Regs[I.B])
                    ? 1
                    : 0;
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(CmpLtImm) {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = static_cast<int64_t>(Regs[I.A]) < I.Imm ? 1 : 0;
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(CmpEq) {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = Regs[I.A] == Regs[I.B] ? 1 : 0;
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(CmpEqImm) {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = Regs[I.A] == static_cast<uint64_t>(I.Imm) ? 1 : 0;
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(Load) {
    const DecodedInst &I = *IP;
    const uint64_t Done = Retired - static_cast<uint64_t>(LimitIP - IP);
    ++IP;
    const uint64_t Addr = Regs[I.A] + static_cast<uint64_t>(I.Imm);
    const uint64_t Value = loadWord(Addr);
    Regs[I.D] = Value;
    Policy.noteLoad(InstLocation{F->FuncId, I.Block, I.Index}, Addr, Value,
                    Done);
    if (StopFlag)
      goto ExitStop;
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(Store) {
    const DecodedInst &I = *IP;
    ++IP;
    const uint64_t Addr = Regs[I.A] + static_cast<uint64_t>(I.Imm);
    const uint64_t Value = Regs[I.B];
    storeWord(Addr, Value);
    if (Faulted)
      goto ExitFault;
    Policy.noteStore(Addr, Value);
    if (StopFlag)
      goto ExitStop;
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(Br) {
    const DecodedInst &I = *IP;
    // Done before the transfer: IP still points at the branch itself.
    const uint64_t Done = Retired - static_cast<uint64_t>(LimitIP - IP);
    const bool Taken = Regs[I.A] != 0;
    IP = Code + (Taken ? I.ThenPC : I.ElsePC);
    LimitIP = IP; // terminator: the old charge is exactly consumed
    Policy.noteBranch(I.Site, Taken, Done);
    if (StopFlag)
      goto ExitStop;
    goto Recharge;
  }
  SPECCTRL_XCASE(Jmp) {
    IP = Code + IP->ThenPC;
    LimitIP = IP;
    goto Recharge;
  }
  SPECCTRL_XCASE(Call) {
    const DecodedInst &I = *IP;
    ++IP;
    if (Stack.size() >= MaxCallDepth) {
      Faulted = true;
      goto ExitFault; // the call itself stays retired; the tail refunds
    }
    assert(I.Callee < CodeMap.size() && "call to unknown function");
    // Not a terminator: refund the caller's outstanding charge (the
    // resume point recharges after the return).
    Fuel += static_cast<uint64_t>(LimitIP - IP);
    Retired -= static_cast<uint64_t>(LimitIP - IP);
    const DecodedFunction *Callee = CodeMap[I.Callee];
    const uint32_t RegBase = static_cast<uint32_t>(RegStack.size());
    RegStack.resize(RegBase + Callee->NumRegs, 0);
    // Sync the caller's resume point before the frame vector can move.
    F->PC = static_cast<uint32_t>(IP - Code);
    F->Block = IP->Block;
    F->Index = IP->Index;
    Stack.push_back({Callee, I.Callee, 0, RegBase, 0, 0});
    F = &Stack.back();
    Code = Callee->Insts.data();
    BlockEnd = Callee->BlockStart.data() + 1;
    IP = Code;
    LimitIP = IP;
    Regs = RegStack.data() + RegBase;
    Policy.noteCall(I.Callee);
    if (StopFlag)
      goto ExitStop;
    goto Recharge;
  }
  SPECCTRL_XCASE(Ret) {
    // Terminator: the charge is exactly consumed (LimitIP == IP + 1).
    const uint32_t Callee = F->FuncId;
    RegStack.resize(F->RegBase);
    Stack.pop_back();
    Policy.noteReturn(Callee);
    if (Stack.empty()) {
      // Returning from the entry function ends the program.
      Halted = true;
      Reason = StopReason::Halted;
      goto Exit;
    }
    F = &Stack.back();
    Code = F->DF->Insts.data();
    BlockEnd = F->DF->BlockStart.data() + 1;
    IP = Code + F->PC;
    LimitIP = IP;
    Regs = RegStack.data() + F->RegBase;
    if (StopFlag)
      goto ExitStop;
    goto Recharge;
  }
  SPECCTRL_XCASE(Halt) {
    const DecodedInst &I = *IP;
    ++IP;
    Halted = true;
    // Terminator: charge exactly consumed.  The frame's position is left
    // one past the Halt, in source coordinates too.
    F->PC = static_cast<uint32_t>(IP - Code);
    F->Block = I.Block;
    F->Index = I.Index + 1;
    Reason = StopReason::Halted;
    goto Exit;
  }

  //--- Fused superinstructions -------------------------------------------
  // Each executes its two halves in order with the first half's event
  // between them.  When the charge horizon splits the pair (fuel ran out
  // between the halves), fall back to the plain handler of the first half.

  SPECCTRL_XCASE(FCmpLtBr) {
    if (LimitIP - IP < 2)
      goto L_CmpLt;
    const DecodedInst &C = IP[0];
    const DecodedInst &B = IP[1];
    Regs[C.D] = static_cast<int64_t>(Regs[C.A]) <
                        static_cast<int64_t>(Regs[C.B])
                    ? 1
                    : 0;
    const uint64_t Done = Retired - static_cast<uint64_t>(LimitIP - (IP + 1));
    const bool Taken = Regs[B.A] != 0;
    IP = Code + (Taken ? B.ThenPC : B.ElsePC);
    LimitIP = IP;
    Policy.noteBranch(B.Site, Taken, Done);
    if (StopFlag)
      goto ExitStop;
    goto Recharge;
  }
  SPECCTRL_XCASE(FCmpLtImmBr) {
    if (LimitIP - IP < 2)
      goto L_CmpLtImm;
    const DecodedInst &C = IP[0];
    const DecodedInst &B = IP[1];
    Regs[C.D] = static_cast<int64_t>(Regs[C.A]) < C.Imm ? 1 : 0;
    const uint64_t Done = Retired - static_cast<uint64_t>(LimitIP - (IP + 1));
    const bool Taken = Regs[B.A] != 0;
    IP = Code + (Taken ? B.ThenPC : B.ElsePC);
    LimitIP = IP;
    Policy.noteBranch(B.Site, Taken, Done);
    if (StopFlag)
      goto ExitStop;
    goto Recharge;
  }
  SPECCTRL_XCASE(FCmpEqBr) {
    if (LimitIP - IP < 2)
      goto L_CmpEq;
    const DecodedInst &C = IP[0];
    const DecodedInst &B = IP[1];
    Regs[C.D] = Regs[C.A] == Regs[C.B] ? 1 : 0;
    const uint64_t Done = Retired - static_cast<uint64_t>(LimitIP - (IP + 1));
    const bool Taken = Regs[B.A] != 0;
    IP = Code + (Taken ? B.ThenPC : B.ElsePC);
    LimitIP = IP;
    Policy.noteBranch(B.Site, Taken, Done);
    if (StopFlag)
      goto ExitStop;
    goto Recharge;
  }
  SPECCTRL_XCASE(FCmpEqImmBr) {
    if (LimitIP - IP < 2)
      goto L_CmpEqImm;
    const DecodedInst &C = IP[0];
    const DecodedInst &B = IP[1];
    Regs[C.D] = Regs[C.A] == static_cast<uint64_t>(C.Imm) ? 1 : 0;
    const uint64_t Done = Retired - static_cast<uint64_t>(LimitIP - (IP + 1));
    const bool Taken = Regs[B.A] != 0;
    IP = Code + (Taken ? B.ThenPC : B.ElsePC);
    LimitIP = IP;
    Policy.noteBranch(B.Site, Taken, Done);
    if (StopFlag)
      goto ExitStop;
    goto Recharge;
  }
  SPECCTRL_XCASE(FLoadAdd) {
    if (LimitIP - IP < 2)
      goto L_Load;
    const DecodedInst &L = IP[0];
    const DecodedInst &A = IP[1];
    const uint64_t Done = Retired - static_cast<uint64_t>(LimitIP - IP);
    ++IP;
    const uint64_t Addr = Regs[L.A] + static_cast<uint64_t>(L.Imm);
    const uint64_t Value = loadWord(Addr);
    Regs[L.D] = Value;
    Policy.noteLoad(InstLocation{F->FuncId, L.Block, L.Index}, Addr, Value,
                    Done);
    if (StopFlag)
      goto ExitStop; // lands on the pair's second half, a real instruction
    ++IP;
    Regs[A.D] = Regs[A.A] + Regs[A.B];
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(FLoadAddImm) {
    if (LimitIP - IP < 2)
      goto L_Load;
    const DecodedInst &L = IP[0];
    const DecodedInst &A = IP[1];
    const uint64_t Done = Retired - static_cast<uint64_t>(LimitIP - IP);
    ++IP;
    const uint64_t Addr = Regs[L.A] + static_cast<uint64_t>(L.Imm);
    const uint64_t Value = loadWord(Addr);
    Regs[L.D] = Value;
    Policy.noteLoad(InstLocation{F->FuncId, L.Block, L.Index}, Addr, Value,
                    Done);
    if (StopFlag)
      goto ExitStop;
    ++IP;
    Regs[A.D] = Regs[A.A] + static_cast<uint64_t>(A.Imm);
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(FAddStore) {
    if (LimitIP - IP < 2)
      goto L_Add;
    const DecodedInst &A = IP[0];
    const DecodedInst &S = IP[1];
    Regs[A.D] = Regs[A.A] + Regs[A.B];
    IP += 2;
    const uint64_t Addr = Regs[S.A] + static_cast<uint64_t>(S.Imm);
    const uint64_t Value = Regs[S.B];
    storeWord(Addr, Value);
    if (Faulted)
      goto ExitFault;
    Policy.noteStore(Addr, Value);
    if (StopFlag)
      goto ExitStop;
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(FAddImmStore) {
    if (LimitIP - IP < 2)
      goto L_AddImm;
    const DecodedInst &A = IP[0];
    const DecodedInst &S = IP[1];
    Regs[A.D] = Regs[A.A] + static_cast<uint64_t>(A.Imm);
    IP += 2;
    const uint64_t Addr = Regs[S.A] + static_cast<uint64_t>(S.Imm);
    const uint64_t Value = Regs[S.B];
    storeWord(Addr, Value);
    if (Faulted)
      goto ExitFault;
    Policy.noteStore(Addr, Value);
    if (StopFlag)
      goto ExitStop;
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(FXorStore) {
    if (LimitIP - IP < 2)
      goto L_Xor;
    const DecodedInst &X = IP[0];
    const DecodedInst &S = IP[1];
    Regs[X.D] = Regs[X.A] ^ Regs[X.B];
    IP += 2;
    const uint64_t Addr = Regs[S.A] + static_cast<uint64_t>(S.Imm);
    const uint64_t Value = Regs[S.B];
    storeWord(Addr, Value);
    if (Faulted)
      goto ExitFault;
    Policy.noteStore(Addr, Value);
    if (StopFlag)
      goto ExitStop;
    SPECCTRL_XDISPATCH();
  }

#if !SPECCTRL_EXEC_COMPUTED_GOTO
  }
#endif

ExitStop:
  Reason = StopReason::Stopped;
  goto Refund;
ExitFault:
  Reason = StopReason::Fault;
Refund:
  // Refund the charged-but-unexecuted tail so instructionsRetired() is
  // exact at the exit point (IP already points past the instruction that
  // stopped or faulted, at a real resume position).
  Retired -= static_cast<uint64_t>(LimitIP - IP);
ExitFuel:
  // From the recharger the previous charge is fully consumed (IP ==
  // LimitIP): nothing to refund.
  F->PC = static_cast<uint32_t>(IP - Code);
  F->Block = IP->Block;
  F->Index = IP->Index;
Exit:
  InstRet = Retired;
  Policy.noteRetired(Retired - Start);
  return Reason;

#if defined(__GNUC__) || defined(__clang__)
#pragma GCC diagnostic pop
#endif

#undef SPECCTRL_XCASE
#undef SPECCTRL_XDISPATCH
}

} // namespace exec
} // namespace specctrl

#endif // SPECCTRL_EXEC_THREADEDBACKEND_H
