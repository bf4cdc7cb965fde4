//===- exec/ThreadedBackend.h - The SimIR execution engine ------*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SimIR execution engine: one direct-threaded (computed-goto)
/// dispatch loop over a pre-decoded, flattened instruction stream.  Each
/// code version is decoded once into a DecodedFunction -- one entry per
/// source instruction, carrying that instruction's own opcode, operands
/// widened into fixed slots, branch targets resolved to decoded-PC
/// offsets, blocks concatenated into one array -- and then executes with a
/// single indirect jump per instruction (token threading: each handler
/// re-dispatches through a label table indexed by ir::Opcode).  Decoded PC
/// <-> (block, index) is bijective, so every stop, fuel cut, and position
/// transplant lands on a real instruction.
///
/// Block-charged retirement: the loop keeps no per-instruction
/// bookkeeping.  On entry to a block (and after every control transfer) it
/// charges the remaining straight-line stretch [IP, block end) against the
/// fuel budget in one step and remembers the charge horizon in LimitIP;
/// straight-line handlers then run with one pointer bump and an
/// IP == LimitIP test folded into the dispatch jump.  Early exits refund
/// the charged but unexecuted tail, so instructionsRetired() is exact at
/// every exit.
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
/// Memory is a table of 4 KiB pages (PageWords words) over a read-only
/// initial image that the engine borrows or owns.  Loads read through the
/// table; a page is copied privately on its first store, so engines that
/// share one image (MSSP's master and checker, every cell of a benchmark)
/// copy only the pages they write.  Growth past the image maps one shared
/// zero page.
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
#include <span>
#include <unordered_map>
#include <vector>

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

/// One pre-decoded instruction.  Exactly one entry per source instruction;
/// branch targets are offsets into the enclosing DecodedFunction's stream.
struct DecodedInst {
  ir::Opcode Op = ir::Opcode::Nop;
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

/// Decodes \p F (which must verify) into a flattened stream.  Exposed for
/// tests; execution goes through ThreadedBackend's per-version cache.
std::unique_ptr<DecodedFunction> decodeFunction(const ir::Function &F);

/// A resumable SimIR execution over a module and a paged word memory,
/// positioned at the entry of the module's entry function on
/// construction.  Code versioning: calls dispatch through a per-function
/// code map, so a dynamic optimizer can swap in a distilled version of a
/// function (and back) between runs -- the mechanism behind the paper's
/// "re-optimize and deploy" arc.
class ThreadedBackend {
public:
  /// An engine whose memory starts as \p Image, borrowed: like \p M, the
  /// image must outlive the engine and must not change under it.  Only the
  /// pages the engine stores to are copied.
  ThreadedBackend(const ir::Module &M, std::span<const uint64_t> Image);
  /// An engine that owns its initial image (a vector passed by name is
  /// copied; pass a span of it to borrow it instead).
  ThreadedBackend(const ir::Module &M, std::vector<uint64_t> Image);

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

  /// A snapshot of memory: every word below the current size, which is
  /// the image's size or one past the highest word stored since.
  std::vector<uint64_t> memory() const;

  /// Reads a memory word (0 at or past the size, matching load semantics).
  uint64_t loadWord(uint64_t Addr) const {
    return Addr < Words ? ReadPages[Addr >> PageBits][Addr & PageMask] : 0;
  }
  /// Writes a memory word, growing memory if needed; addresses past the
  /// memory cap fault instead of growing.
  void storeWord(uint64_t Addr, uint64_t Value) {
    if (Addr >= Words) [[unlikely]] {
      if (Addr >= MaxMemoryWords) {
        Faulted = true;
        return;
      }
      growTo(Addr + 1);
    }
    uint64_t *Page = WritePages[Addr >> PageBits].get();
    if (!Page) [[unlikely]]
      Page = privatize(Addr >> PageBits);
    Page[Addr & PageMask] = Value;
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
  /// Words per memory page (4 KiB), the unit of copy-on-write.
  static constexpr unsigned PageBits = 9;
  static constexpr uint64_t PageWords = uint64_t{1} << PageBits;

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

  /// Builds the code map and the entry frame, and maps \p Image.
  void init(std::span<const uint64_t> Image);
  /// Extends memory to \p NewWords words; the new pages read zero.
  void growTo(uint64_t NewWords);
  /// Gives \p Page a private copy of its current contents; returns it.
  uint64_t *privatize(uint64_t Page);

  static constexpr uint64_t PageMask = PageWords - 1;

  const ir::Module &Mod;
  uint64_t ModGeneration; ///< Mod.generation() at construction
  /// Per-function currently dispatched version (parallel to VersionMap).
  std::vector<const DecodedFunction *> CodeMap;
  std::vector<const ir::Function *> VersionMap;
  /// Decode cache: one entry per distinct code version ever dispatched.
  std::unordered_map<const ir::Function *, std::unique_ptr<DecodedFunction>>
      Decoded;
  /// The initial image when the engine owns it (empty when borrowed).
  std::vector<uint64_t> OwnedImage;
  /// Memory size in words.
  uint64_t Words = 0;
  /// Per page: where its words are read -- the image, the page's private
  /// copy, or the shared zero page.  Every page read is whole: an image
  /// whose size is not a page multiple has its last page copied at
  /// construction, so words past the image read 0 once memory grows.
  std::vector<const uint64_t *> ReadPages;
  /// Per page: its private copy, null until the page's first store.
  std::vector<std::unique_ptr<uint64_t[]>> WritePages;
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

// The block-charge dispatch: one compare against the charge horizon and
// the handler's own indirect jump.  A spent charge goes back through the
// recharger (which also ends the run when fuel is gone).
#define SPECCTRL_XDISPATCH()                                                   \
  do {                                                                         \
    if (IP == LimitIP)                                                         \
      goto Recharge;                                                           \
    goto *Tbl[static_cast<unsigned>(IP->Op)];                                  \
  } while (0)

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

  // One handler label per ir::Opcode, in the enum's order.
  static const void *const Tbl[] = {
      &&L_Nop,      &&L_MovImm,      &&L_Mov,      &&L_Add,
      &&L_AddImm,   &&L_Sub,         &&L_Mul,      &&L_And,
      &&L_Or,       &&L_Xor,         &&L_Shl,      &&L_Shr,
      &&L_CmpLt,    &&L_CmpLtImm,    &&L_CmpEq,    &&L_CmpEqImm,
      &&L_Load,     &&L_Store,       &&L_Br,       &&L_Jmp,
      &&L_Call,     &&L_Ret,         &&L_Halt,
  };
  static_assert(sizeof(Tbl) / sizeof(Tbl[0]) ==
                    static_cast<unsigned>(ir::Opcode::Halt) + 1,
                "one dispatch label per ir::Opcode");

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
  goto *Tbl[static_cast<unsigned>(IP->Op)];

  L_Nop: {
    ++IP;
    SPECCTRL_XDISPATCH();
  }
  L_MovImm: {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = static_cast<uint64_t>(I.Imm);
    SPECCTRL_XDISPATCH();
  }
  L_Mov: {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = Regs[I.A];
    SPECCTRL_XDISPATCH();
  }
  L_Add: {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = Regs[I.A] + Regs[I.B];
    SPECCTRL_XDISPATCH();
  }
  L_AddImm: {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = Regs[I.A] + static_cast<uint64_t>(I.Imm);
    SPECCTRL_XDISPATCH();
  }
  L_Sub: {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = Regs[I.A] - Regs[I.B];
    SPECCTRL_XDISPATCH();
  }
  L_Mul: {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = Regs[I.A] * Regs[I.B];
    SPECCTRL_XDISPATCH();
  }
  L_And: {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = Regs[I.A] & Regs[I.B];
    SPECCTRL_XDISPATCH();
  }
  L_Or: {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = Regs[I.A] | Regs[I.B];
    SPECCTRL_XDISPATCH();
  }
  L_Xor: {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = Regs[I.A] ^ Regs[I.B];
    SPECCTRL_XDISPATCH();
  }
  L_Shl: {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = Regs[I.A] << (Regs[I.B] & 63);
    SPECCTRL_XDISPATCH();
  }
  L_Shr: {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = Regs[I.A] >> (Regs[I.B] & 63);
    SPECCTRL_XDISPATCH();
  }
  L_CmpLt: {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = static_cast<int64_t>(Regs[I.A]) <
                        static_cast<int64_t>(Regs[I.B])
                    ? 1
                    : 0;
    SPECCTRL_XDISPATCH();
  }
  L_CmpLtImm: {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = static_cast<int64_t>(Regs[I.A]) < I.Imm ? 1 : 0;
    SPECCTRL_XDISPATCH();
  }
  L_CmpEq: {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = Regs[I.A] == Regs[I.B] ? 1 : 0;
    SPECCTRL_XDISPATCH();
  }
  L_CmpEqImm: {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = Regs[I.A] == static_cast<uint64_t>(I.Imm) ? 1 : 0;
    SPECCTRL_XDISPATCH();
  }
  L_Load: {
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
  L_Store: {
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
  L_Br: {
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
  L_Jmp: {
    IP = Code + IP->ThenPC;
    LimitIP = IP;
    goto Recharge;
  }
  L_Call: {
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
  L_Ret: {
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
  L_Halt: {
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

#undef SPECCTRL_XDISPATCH
}

} // namespace exec
} // namespace specctrl

#endif // SPECCTRL_EXEC_THREADEDBACKEND_H
