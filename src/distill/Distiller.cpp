//===- distill/Distiller.cpp - Speculative code distillation --------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "distill/Distiller.h"

#include "analysis/DistillVerifier.h"
#include "ir/CFG.h"
#include "ir/Verifier.h"
#include "support/Options.h"

#include <cassert>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string_view>

using namespace specctrl;
using namespace specctrl::distill;
using namespace specctrl::ir;

namespace {

/// Parses all of \p S as one decimal number: no whitespace, no sign on
/// an unsigned type, no overflow.
template <typename T> bool parseWhole(std::string_view S, T &Out) {
  const char *const End = S.data() + S.size();
  const auto [Ptr, Ec] = std::from_chars(S.data(), End, Out);
  return Ec == std::errc() && Ptr == End;
}

} // namespace

bool distill::parseBranchAssertions(const std::string &List,
                                    std::map<SiteId, bool> &Out) {
  for (const std::string &Item : splitList(List)) {
    const std::string_view View(Item);
    const size_t Colon = View.find(':');
    if (Colon == std::string_view::npos)
      return false;
    const std::string_view Dir = View.substr(Colon + 1);
    SiteId Site = 0;
    if ((Dir != "t" && Dir != "n") || !parseWhole(View.substr(0, Colon), Site))
      return false;
    Out[Site] = Dir == "t";
  }
  return true;
}

bool distill::parseValueConstants(const std::string &List,
                                  std::map<LocKey, int64_t> &Out) {
  for (const std::string &Item : splitList(List)) {
    const std::string_view View(Item);
    const size_t C1 = View.find(':');
    const size_t C2 = C1 == std::string_view::npos
                          ? std::string_view::npos
                          : View.find(':', C1 + 1);
    if (C2 == std::string_view::npos)
      return false;
    LocKey Key;
    int64_t Value = 0;
    if (!parseWhole(View.substr(0, C1), Key.Block) ||
        !parseWhole(View.substr(C1 + 1, C2 - C1 - 1), Key.Index) ||
        !parseWhole(View.substr(C2 + 1), Value))
      return false;
    Out[Key] = Value;
  }
  return true;
}

uint32_t distill::applyValueSpeculation(
    Function &F, const std::map<LocKey, int64_t> &Constants) {
  uint32_t Rewritten = 0;
  for (const auto &[Loc, Value] : Constants) {
    if (Loc.Block >= F.numBlocks())
      continue;
    BasicBlock &BB = F.block(Loc.Block);
    if (Loc.Index >= BB.size())
      continue;
    Instruction &I = BB.Insts[Loc.Index];
    if (I.Op != Opcode::Load)
      continue;
    I = Instruction::makeMovImm(I.Dest, Value);
    ++Rewritten;
  }
  return Rewritten;
}

void distill::applyBranchAssertions(
    Function &F, const std::map<SiteId, bool> &Assertions,
    std::vector<SiteId> &Removed) {
  for (BasicBlock &BB : F.blocks()) {
    if (BB.empty())
      continue;
    Instruction &Term = BB.Insts.back();
    if (Term.Op != Opcode::Br)
      continue;
    const auto It = Assertions.find(Term.Site);
    if (It == Assertions.end())
      continue;
    Removed.push_back(Term.Site);
    Term = Instruction::makeJmp(It->second ? Term.ThenTarget
                                           : Term.ElseTarget);
  }
}

namespace {

/// Retargets every terminator of \p F through \p Remap (old -> new index).
void remapTargets(Function &F, const std::vector<uint32_t> &Remap) {
  for (BasicBlock &BB : F.blocks()) {
    if (BB.empty())
      continue;
    Instruction &Term = BB.Insts.back();
    if (Term.Op == Opcode::Br) {
      Term.ThenTarget = Remap[Term.ThenTarget];
      Term.ElseTarget = Remap[Term.ElseTarget];
    } else if (Term.Op == Opcode::Jmp) {
      Term.ThenTarget = Remap[Term.ThenTarget];
    }
  }
}

/// Thread jumps through blocks that consist of a single Jmp.
bool threadTrivialJumps(Function &F) {
  // Final target of a jump-only chain starting at B (path-compressed,
  // cycle-guarded).
  std::vector<uint32_t> Final(F.numBlocks());
  for (uint32_t B = 0; B < F.numBlocks(); ++B)
    Final[B] = B;
  auto Resolve = [&](uint32_t B) {
    uint32_t Cur = B;
    uint32_t Hops = 0;
    while (Hops++ < F.numBlocks()) {
      const BasicBlock &BB = F.block(Cur);
      if (BB.size() != 1 || BB.Insts.back().Op != Opcode::Jmp)
        break;
      const uint32_t Next = BB.Insts.back().ThenTarget;
      if (Next == Cur)
        break;
      Cur = Next;
    }
    return Cur;
  };

  bool Changed = false;
  for (BasicBlock &BB : F.blocks()) {
    if (BB.empty())
      continue;
    Instruction &Term = BB.Insts.back();
    if (Term.Op == Opcode::Jmp) {
      const uint32_t To = Resolve(Term.ThenTarget);
      Changed |= To != Term.ThenTarget;
      Term.ThenTarget = To;
    } else if (Term.Op == Opcode::Br) {
      const uint32_t Then = Resolve(Term.ThenTarget);
      const uint32_t Else = Resolve(Term.ElseTarget);
      Changed |= Then != Term.ThenTarget || Else != Term.ElseTarget;
      Term.ThenTarget = Then;
      Term.ElseTarget = Else;
    }
  }
  return Changed;
}

/// Merges blocks ending in Jmp into their unique-successor blocks when the
/// successor has exactly one predecessor.
bool mergeJumpChains(Function &F) {
  bool Changed = false;
  std::vector<std::vector<uint32_t>> Preds = predecessors(F);
  const std::vector<bool> Reachable = reachableBlocks(F);
  std::vector<bool> Consumed(F.numBlocks(), false);

  for (uint32_t B = 0; B < F.numBlocks(); ++B) {
    if (!Reachable[B] || Consumed[B])
      continue;
    for (;;) {
      BasicBlock &BB = F.block(B);
      Instruction &Term = BB.Insts.back();
      if (Term.Op != Opcode::Jmp)
        break;
      const uint32_t Succ = Term.ThenTarget;
      if (Succ == B || Consumed[Succ] || Preds[Succ].size() != 1)
        break;
      // Splice the successor in place of the jump.
      BB.Insts.pop_back();
      BasicBlock &SuccBB = F.block(Succ);
      BB.Insts.insert(BB.Insts.end(), SuccBB.Insts.begin(),
                      SuccBB.Insts.end());
      SuccBB.Insts.clear();
      SuccBB.Insts.push_back(Instruction::makeHalt()); // keep verifiable
      Consumed[Succ] = true;
      Changed = true;
    }
  }
  return Changed;
}

/// Drops unreachable blocks, compacting indices.  Returns true on change.
bool dropUnreachable(Function &F) {
  const std::vector<bool> Reachable = reachableBlocks(F);
  bool Any = false;
  for (bool R : Reachable)
    Any |= !R;
  if (!Any)
    return false;

  std::vector<uint32_t> Remap(F.numBlocks(), 0);
  std::vector<BasicBlock> Kept;
  Kept.reserve(F.numBlocks());
  for (uint32_t B = 0; B < F.numBlocks(); ++B) {
    if (!Reachable[B])
      continue;
    Remap[B] = static_cast<uint32_t>(Kept.size());
    Kept.push_back(std::move(F.block(B)));
  }
  F.blocks() = std::move(Kept);
  remapTargets(F, Remap);
  return true;
}

} // namespace

bool distill::straightenFunction(Function &F) {
  // Iterate to a fixpoint: dropping unreachable blocks exposes further
  // merges (an unreachable predecessor no longer blocks a chain), and
  // merging exposes further threading.
  bool Any = false;
  for (unsigned Iter = 0; Iter < 16; ++Iter) {
    bool Changed = false;
    Changed |= dropUnreachable(F);
    Changed |= threadTrivialJumps(F);
    Changed |= mergeJumpChains(F);
    if (!Changed)
      return Any;
    Any = true;
  }
  return Any;
}

bool distill::foldConstants(Function &F) {
  bool Changed = false;
  std::vector<std::optional<uint64_t>> Const(F.numRegs());

  for (BasicBlock &BB : F.blocks()) {
    std::fill(Const.begin(), Const.end(), std::nullopt);
    for (Instruction &I : BB.Insts) {
      switch (I.Op) {
      case Opcode::MovImm:
        Const[I.Dest] = static_cast<uint64_t>(I.Imm);
        break;
      case Opcode::Mov:
        if (Const[I.SrcA]) {
          I = Instruction::makeMovImm(I.Dest, static_cast<int64_t>(
                                                  *Const[I.SrcA]));
          Changed = true;
        }
        Const[I.Dest] = Const[I.SrcA];
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
      case Opcode::CmpEq:
        if (Const[I.SrcA] && Const[I.SrcB]) {
          const uint64_t V = evalBinary(I.Op, *Const[I.SrcA], *Const[I.SrcB]);
          I = Instruction::makeMovImm(I.Dest, static_cast<int64_t>(V));
          Const[I.Dest] = V;
          Changed = true;
        } else if (Const[I.SrcA] || Const[I.SrcB]) {
          // Strength reduction with one known operand: fold the constant
          // into an immediate form where one exists, so the producing
          // MovImm (e.g. a value-speculated load) can die.
          const bool AKnown = Const[I.SrcA].has_value();
          const int64_t Imm = static_cast<int64_t>(
              AKnown ? *Const[I.SrcA] : *Const[I.SrcB]);
          const uint8_t Reg = AKnown ? I.SrcB : I.SrcA;
          if (I.Op == Opcode::Add) {
            I = Instruction::makeBinaryImm(Opcode::AddImm, I.Dest, Reg, Imm);
            Changed = true;
          } else if (I.Op == Opcode::CmpEq) {
            I = Instruction::makeBinaryImm(Opcode::CmpEqImm, I.Dest, Reg,
                                           Imm);
            Changed = true;
          } else if (I.Op == Opcode::CmpLt && !AKnown) {
            // Only (reg < imm) is expressible.
            I = Instruction::makeBinaryImm(Opcode::CmpLtImm, I.Dest, I.SrcA,
                                           Imm);
            Changed = true;
          }
          Const[I.Dest] = std::nullopt;
        } else {
          Const[I.Dest] = std::nullopt;
        }
        break;
      case Opcode::AddImm:
      case Opcode::CmpLtImm:
      case Opcode::CmpEqImm:
        if (Const[I.SrcA]) {
          const uint64_t V = evalBinary(I.Op, *Const[I.SrcA],
                                        static_cast<uint64_t>(I.Imm));
          I = Instruction::makeMovImm(I.Dest, static_cast<int64_t>(V));
          Const[I.Dest] = V;
          Changed = true;
        } else {
          Const[I.Dest] = std::nullopt;
        }
        break;
      case Opcode::Load:
        Const[I.Dest] = std::nullopt;
        break;
      case Opcode::Br:
        if (Const[I.SrcA]) {
          I = Instruction::makeJmp(*Const[I.SrcA] != 0 ? I.ThenTarget
                                                       : I.ElseTarget);
          Changed = true;
        }
        break;
      default:
        break;
      }
    }
  }
  return Changed;
}

bool distill::eliminateDeadCode(Function &F) {
  // Backward liveness with one 64-bit mask per block (MaxRegs == 64).
  static_assert(Function::MaxRegs <= 64, "liveness masks assume <=64 regs");
  const uint32_t N = F.numBlocks();
  std::vector<uint64_t> LiveIn(N, 0);

  auto TransferBlock = [&](const BasicBlock &BB, uint64_t Live) {
    for (size_t I = BB.size(); I-- > 0;) {
      const Instruction &Inst = BB.Insts[I];
      if (Inst.writesRegister())
        Live &= ~(1ull << Inst.Dest);
      const unsigned Sources = numRegSources(Inst.Op);
      if (Sources >= 1)
        Live |= 1ull << Inst.SrcA;
      if (Sources >= 2)
        Live |= 1ull << Inst.SrcB;
    }
    return Live;
  };

  // Iterate to fixpoint (block counts are small post-straightening).
  bool Dirty = true;
  while (Dirty) {
    Dirty = false;
    for (uint32_t B = N; B-- > 0;) {
      uint64_t LiveOut = 0;
      for (uint32_t Succ : successors(F.block(B).terminator()))
        LiveOut |= LiveIn[Succ];
      const uint64_t NewIn = TransferBlock(F.block(B), LiveOut);
      if (NewIn != LiveIn[B]) {
        LiveIn[B] = NewIn;
        Dirty = true;
      }
    }
  }

  // Rewrite each block, dropping dead register writes.
  bool Changed = false;
  for (uint32_t B = 0; B < N; ++B) {
    BasicBlock &BB = F.block(B);
    uint64_t Live = 0;
    for (uint32_t Succ : successors(BB.terminator()))
      Live |= LiveIn[Succ];

    std::vector<Instruction> Kept;
    Kept.reserve(BB.size());
    for (size_t I = BB.size(); I-- > 0;) {
      const Instruction &Inst = BB.Insts[I];
      const bool Dead = Inst.writesRegister() && !Inst.hasSideEffects() &&
                        (Live & (1ull << Inst.Dest)) == 0;
      if (Dead) {
        Changed = true;
        continue;
      }
      if (Inst.writesRegister())
        Live &= ~(1ull << Inst.Dest);
      const unsigned Sources = numRegSources(Inst.Op);
      if (Sources >= 1)
        Live |= 1ull << Inst.SrcA;
      if (Sources >= 2)
        Live |= 1ull << Inst.SrcB;
      Kept.push_back(Inst);
    }
    if (Changed)
      BB.Insts.assign(Kept.rbegin(), Kept.rend());
  }
  return Changed;
}

DistillResult distill::distillFunction(const Function &Original,
                                       const DistillRequest &Request) {
  DistillResult Result;
  Result.OriginalSize = Original.staticSize();
  Result.Distilled = Original; // functions are value types

  Function &F = Result.Distilled;
  Result.SpeculatedLoads = applyValueSpeculation(F, Request.ValueConstants);
  applyBranchAssertions(F, Request.BranchAssertions, Result.AssertedSites);

  // Straighten/fold to fixpoint, then clean up dead computation.
  for (unsigned Iter = 0; Iter < 8; ++Iter) {
    const bool S = straightenFunction(F);
    const bool C = foldConstants(F);
    if (!S && !C)
      break;
  }
  if (eliminateDeadCode(F))
    straightenFunction(F);

  Result.DistilledSize = F.staticSize();

  std::string Error;
  const bool Ok = verifyFunction(F, &Error);
  assert(Ok && "distilled function failed verification");
  (void)Ok;

  // Deploy-time safety gate (SPECCTRL_VERIFY): statically prove
  // the distillation stays within the bounds task-level recovery can
  // handle.  Any finding here is a distiller bug, so fail loudly.
  if (analysis::verifyDistillEnabled()) {
    const analysis::VerifyResult VR =
        analysis::verifyDistillation(Original, Request, F);
    if (!VR.ok()) {
      std::fprintf(
          stderr,
          "specctrl: distillation failed speculation-safety checks:\n%s",
          analysis::formatDiagnostics(VR).c_str());
      std::abort();
    }
  }
  return Result;
}
