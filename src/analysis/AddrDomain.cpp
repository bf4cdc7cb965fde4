//===- analysis/AddrDomain.cpp - Abstract address domain ------------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/AddrDomain.h"

#include "analysis/ReachingDefs.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <sstream>

using namespace specctrl;
using namespace specctrl::analysis;
using namespace specctrl::ir;

namespace {

uint64_t absDiff(uint64_t A, uint64_t B) { return A > B ? A - B : B - A; }

/// Joins would otherwise grow Count without bound; past this the range
/// becomes unbounded (a superset, so sound).
constexpr uint64_t CountCap = uint64_t(1) << 16;

/// Shifts every element of \p A by the constant \p C (wrap-around).
AbsVal addConst(const AbsVal &A, uint64_t C) {
  switch (A.K) {
  case AbsVal::Bottom:
  case AbsVal::Top:
    return A;
  case AbsVal::Const:
    return AbsVal::constant(A.Base + C);
  case AbsVal::Stride:
    return AbsVal::stride(A.Base + C, A.Step, A.Count);
  }
  return AbsVal::top();
}

/// The {0, 1} set every comparison result lives in.
AbsVal boolRange() { return AbsVal::stride(0, 1, 2); }

} // namespace

AbsVal AbsVal::stride(uint64_t Base, uint64_t Step, uint64_t Count) {
  if (Step == 0 || Count == 1)
    return constant(Base);
  if (Count != 0) {
    // A bounded range whose last element wraps becomes unbounded; the
    // unbounded set is the whole residue class mod Step, a superset.
    uint64_t Span = 0, Last = 0;
    if (__builtin_mul_overflow(Count - 1, Step, &Span) ||
        __builtin_add_overflow(Base, Span, &Last))
      Count = 0;
  }
  AbsVal V;
  V.K = Stride;
  V.Base = Base;
  V.Step = Step;
  V.Count = Count;
  return V;
}

bool AbsVal::contains(uint64_t V) const {
  switch (K) {
  case Bottom:
    return false;
  case Const:
    return V == Base;
  case Stride: {
    const uint64_t D = V - Base; // wrap-around distance
    if (D % Step != 0)
      return false;
    return Count == 0 || D / Step < Count;
  }
  case Top:
    return true;
  }
  return false;
}

bool AbsVal::covers(const AbsVal &O) const {
  if (O.K == Bottom)
    return true;
  if (K == Top)
    return true;
  if (K == Bottom || O.K == Top)
    return false;
  switch (K) {
  case Const:
    return O.K == Const && O.Base == Base;
  case Stride:
    if (O.K == Const)
      return contains(O.Base);
    // O is a Stride.  Its elements stay in this set iff its first element
    // is in, its step keeps the residue class, and (for a bounded cover)
    // its last element is still in range.
    if (O.Step % Step != 0 || !contains(O.Base))
      return false;
    if (O.Count == 0)
      return Count == 0;
    return contains(O.lastElem());
  default:
    return false;
  }
}

AbsVal specctrl::analysis::joinVals(const AbsVal &A, const AbsVal &B) {
  if (A.isBottom())
    return B;
  if (B.isBottom())
    return A;
  if (A.isTop() || B.isTop())
    return AbsVal::top();
  if (A == B)
    return A;
  if (A.covers(B))
    return A;
  if (B.covers(A))
    return B;
  // Both Const or Stride: fuse into one progression over the gcd of the
  // steps and the base offset.
  const uint64_t StepA = A.isStride() ? A.Step : 0;
  const uint64_t StepB = B.isStride() ? B.Step : 0;
  const uint64_t MinBase = std::min(A.Base, B.Base);
  const uint64_t G =
      std::gcd(std::gcd(StepA, StepB), absDiff(A.Base, B.Base));
  if (G == 0)
    return A; // identical constants (A == B handled above, keep safe)
  const bool BoundedA = A.isConst() || A.Count != 0;
  const bool BoundedB = B.isConst() || B.Count != 0;
  if (!BoundedA || !BoundedB)
    return AbsVal::stride(MinBase, G, 0);
  const uint64_t LastA = A.isConst() ? A.Base : A.lastElem();
  const uint64_t LastB = B.isConst() ? B.Base : B.lastElem();
  const uint64_t Count = (std::max(LastA, LastB) - MinBase) / G + 1;
  return AbsVal::stride(MinBase, G, Count > CountCap ? 0 : Count);
}

AbsVal specctrl::analysis::widenVals(const AbsVal &A, const AbsVal &B) {
  const AbsVal J = joinVals(A, B);
  if (J == A || J.isConst() || J.isTop())
    return J;
  // Any genuine growth jumps straight to the unbounded residue class so a
  // loop's induction variable stabilizes in one extra sweep.
  return AbsVal::stride(J.Base, J.Step, 0);
}

AbsVal specctrl::analysis::absBinary(Opcode Op, const AbsVal &A,
                                     const AbsVal &B) {
  if (A.isBottom() || B.isBottom())
    return AbsVal::bottom();
  if (A.isConst() && B.isConst())
    return AbsVal::constant(evalBinary(Op, A.Base, B.Base));
  switch (Op) {
  case Opcode::Add:
    if (A.isConst())
      return addConst(B, A.Base);
    if (B.isConst())
      return addConst(A, B.Base);
    if (A.isStride() && B.isStride()) {
      // Every sum is congruent to Base.A + Base.B modulo gcd of the steps.
      const uint64_t G = std::gcd(A.Step, B.Step);
      const uint64_t Base = A.Base + B.Base;
      if (A.Count == 0 || B.Count == 0)
        return AbsVal::stride(Base, G, 0);
      uint64_t Last = 0;
      if (__builtin_add_overflow(A.lastElem(), B.lastElem(), &Last))
        return AbsVal::stride(Base, G, 0);
      const uint64_t Count = (Last - Base) / G + 1;
      return AbsVal::stride(Base, G, Count > CountCap ? 0 : Count);
    }
    return AbsVal::top();
  case Opcode::Sub:
    if (B.isConst())
      return addConst(A, 0 - B.Base);
    if (A.isConst() && B.isStride() && B.Count != 0)
      // c - (b + k*s) walks the same progression downward from c - last.
      return AbsVal::stride(A.Base - B.lastElem(), B.Step, B.Count);
    return AbsVal::top();
  case Opcode::Mul: {
    const AbsVal *S = A.isStride() ? &A : (B.isStride() ? &B : nullptr);
    const AbsVal *C = A.isConst() ? &A : (B.isConst() ? &B : nullptr);
    if (S && C) {
      if (C->Base == 0)
        return AbsVal::constant(0);
      const uint64_t Step = S->Step * C->Base;
      if (Step == 0)
        return AbsVal::top(); // step wrapped away; give up
      return AbsVal::stride(S->Base * C->Base, Step, S->Count);
    }
    return AbsVal::top();
  }
  case Opcode::And: {
    // x & m never exceeds m, whatever x is: the clamp idiom.
    const AbsVal *C = A.isConst() ? &A : (B.isConst() ? &B : nullptr);
    if (C)
      return C->Base == ~uint64_t(0) ? AbsVal::top()
                                     : AbsVal::stride(0, 1, C->Base + 1);
    return AbsVal::top();
  }
  case Opcode::Shl:
    if (B.isConst() && A.isStride()) {
      const uint64_t Sh = B.Base & 63;
      const uint64_t Step = A.Step << Sh;
      if (Sh != 0 && (Step >> Sh) != A.Step)
        return AbsVal::top(); // step shifted out; give up
      return AbsVal::stride(A.Base << Sh, Step, A.Count);
    }
    return AbsVal::top();
  case Opcode::CmpLt:
  case Opcode::CmpEq:
    return boolRange();
  default:
    return AbsVal::top();
  }
}

void specctrl::analysis::applyAddrInstruction(const Instruction &I,
                                              std::vector<AbsVal> &Regs) {
  switch (I.Op) {
  case Opcode::MovImm:
    Regs[I.Dest] = AbsVal::constant(static_cast<uint64_t>(I.Imm));
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
  case Opcode::CmpEq:
    Regs[I.Dest] = absBinary(I.Op, Regs[I.SrcA], Regs[I.SrcB]);
    break;
  case Opcode::AddImm:
    Regs[I.Dest] =
        absBinary(Opcode::Add, Regs[I.SrcA],
                  AbsVal::constant(static_cast<uint64_t>(I.Imm)));
    break;
  case Opcode::CmpLtImm:
  case Opcode::CmpEqImm: {
    const AbsVal &A = Regs[I.SrcA];
    Regs[I.Dest] =
        A.isConst() ? AbsVal::constant(evalBinary(
                          I.Op, A.Base, static_cast<uint64_t>(I.Imm)))
                    : (A.isBottom() ? AbsVal::bottom() : boolRange());
    break;
  }
  case Opcode::Load:
    // Memory contents are outside this domain.
    Regs[I.Dest] = AbsVal::top();
    break;
  default:
    // Stores, calls (caller registers are preserved), and terminators
    // leave registers alone.
    break;
  }
}

AbsVal specctrl::analysis::refineSignedLess(const AbsVal &A, int64_t Bound,
                                            bool Truth) {
  switch (A.K) {
  case AbsVal::Bottom:
  case AbsVal::Top:
    return A;
  case AbsVal::Const: {
    const bool Sat = static_cast<int64_t>(A.Base) < Bound;
    return Sat == Truth ? A : AbsVal::bottom();
  }
  case AbsVal::Stride: {
    // Only refine ranges that sit entirely in the non-negative signed
    // half, the shape bounds-checked indices take; anything else passes
    // through unchanged (always sound).
    if (A.Count == 0 ||
        A.lastElem() > static_cast<uint64_t>(INT64_MAX))
      return A;
    if (Bound <= 0)
      return Truth ? AbsVal::bottom() : A;
    const uint64_t UB = static_cast<uint64_t>(Bound);
    if (A.Base >= UB) // no element satisfies v < Bound
      return Truth ? AbsVal::bottom() : A;
    if (A.lastElem() < UB) // every element satisfies it
      return Truth ? A : AbsVal::bottom();
    const uint64_t NumSat = (UB - 1 - A.Base) / A.Step + 1;
    return Truth ? AbsVal::stride(A.Base, A.Step, NumSat)
                 : AbsVal::stride(A.Base + NumSat * A.Step, A.Step,
                                  A.Count - NumSat);
  }
  }
  return A;
}

AbsVal specctrl::analysis::refineEquals(const AbsVal &A, uint64_t V,
                                        bool Truth) {
  if (A.isBottom())
    return A;
  if (Truth)
    return A.contains(V) ? AbsVal::constant(V) : AbsVal::bottom();
  if (A.isConst() && A.Base == V)
    return AbsVal::bottom();
  return A; // removing one point from a range is not representable
}

std::string specctrl::analysis::formatAbsVal(const AbsVal &V) {
  switch (V.K) {
  case AbsVal::Bottom:
    return "unreached";
  case AbsVal::Const:
    return std::to_string(V.Base);
  case AbsVal::Stride: {
    std::ostringstream OS;
    OS << "[" << V.Base << " +" << V.Step << "k";
    if (V.Count != 0)
      OS << " x" << V.Count;
    else
      OS << " ..";
    OS << "]";
    return OS.str();
  }
  case AbsVal::Top:
    return "unknown";
  }
  return "unknown";
}

//===----------------------------------------------------------------------===//
// AddrSet
//===----------------------------------------------------------------------===//

namespace {

/// If A union B is exactly representable as one AbsVal, returns it.
/// Handles same-step adjacent/overlapping ranges and constant pairs; the
/// caller has already ruled out one side covering the other.
bool tryExactUnion(const AbsVal &A, const AbsVal &B, AbsVal &Out) {
  if (A.isConst() && B.isConst()) {
    Out = AbsVal::stride(std::min(A.Base, B.Base), absDiff(A.Base, B.Base), 2);
    return true;
  }
  // Normalize: S is a Stride, V is Const or same-step Stride.
  const AbsVal *S = A.isStride() ? &A : (B.isStride() ? &B : nullptr);
  const AbsVal *O = S == &A ? &B : &A;
  if (!S || !(O->isConst() || (O->isStride() && O->Step == S->Step)))
    return false;
  const uint64_t Step = S->Step;
  // True congruence: wrap-around subtraction does not preserve the mod-Step
  // residue unless Step divides 2^64, so compare via the absolute distance.
  if (absDiff(O->Base, S->Base) % Step != 0)
    return false; // different residue classes
  if (O->isConst()) {
    // Extend the range by one element at either end.
    if (S->Count != 0 && O->Base == S->lastElem() + Step) {
      Out = AbsVal::stride(S->Base, Step, S->Count + 1);
      return true;
    }
    if (O->Base == S->Base - Step) {
      Out = AbsVal::stride(O->Base, Step, S->Count == 0 ? 0 : S->Count + 1);
      return true;
    }
    return false;
  }
  // Two same-step strides: contiguous iff neither starts more than one
  // step past the other's end.
  const uint64_t LoBase = std::min(S->Base, O->Base);
  const AbsVal &Lo = S->Base == LoBase ? *S : *O;
  const AbsVal &Hi = &Lo == S ? *O : *S;
  if (Lo.Count == 0) {
    Out = AbsVal::stride(LoBase, Step, 0);
    return true;
  }
  if (Hi.Base > Lo.lastElem() + Step)
    return false; // gap between the ranges
  if (Hi.Count == 0) {
    Out = AbsVal::stride(LoBase, Step, 0);
    return true;
  }
  const uint64_t Last = std::max(Lo.lastElem(), Hi.lastElem());
  Out = AbsVal::stride(LoBase, Step, (Last - LoBase) / Step + 1);
  return true;
}

} // namespace

void AddrSet::add(const AbsVal &V) {
  if (Unknown || V.isBottom())
    return;
  if (V.isTop()) {
    Unknown = true;
    Vals.clear();
    return;
  }
  AbsVal Cur = V;
  bool Merged = true;
  while (Merged) {
    Merged = false;
    for (size_t I = 0; I < Vals.size(); ++I) {
      if (Vals[I].covers(Cur))
        return;
      AbsVal Fused;
      if (Cur.covers(Vals[I]))
        Fused = Cur;
      else if (!tryExactUnion(Vals[I], Cur, Fused))
        continue;
      Vals.erase(Vals.begin() + static_cast<ptrdiff_t>(I));
      Cur = Fused;
      Merged = true;
      break;
    }
  }
  Vals.push_back(Cur);
  while (Vals.size() > MaxVals) {
    // Overflow: fold the two newest members (lossy but sound).
    AbsVal J = joinVals(Vals[Vals.size() - 2], Vals[Vals.size() - 1]);
    Vals.pop_back();
    Vals.pop_back();
    if (J.isTop()) {
      Unknown = true;
      Vals.clear();
      return;
    }
    Vals.push_back(J);
  }
}

void AddrSet::merge(const AddrSet &O) {
  if (O.Unknown) {
    Unknown = true;
    Vals.clear();
    return;
  }
  for (const AbsVal &V : O.Vals)
    add(V);
}

bool AddrSet::covers(const AbsVal &V) const {
  if (Unknown || V.isBottom())
    return true;
  for (const AbsVal &E : Vals)
    if (E.covers(V))
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// AddrFacts
//===----------------------------------------------------------------------===//

namespace {

/// After this many in-state updates a block's join switches to widening,
/// and after ForceTopAt any further change goes straight to Top.
constexpr uint32_t WidenAt = 8;
constexpr uint32_t ForceTopAt = 16;

} // namespace

std::vector<AbsVal> AddrFacts::refineForEdge(const BasicBlock &BB,
                                             std::vector<AbsVal> State,
                                             bool Truth) {
  const Instruction &Term = BB.Insts.back();
  if (Term.Op != Opcode::Br)
    return State;
  const uint8_t C = Term.SrcA;

  // Find the condition's defining instruction within this block.
  int DefIdx = -1;
  const uint32_t Size = static_cast<uint32_t>(BB.size());
  for (uint32_t I = 0; I + 1 < Size; ++I)
    if (BB.Insts[I].writesRegister() && BB.Insts[I].Dest == C)
      DefIdx = static_cast<int>(I);

  // A register's terminator-time value equals its compare-time value only
  // if nothing redefines it in between.
  const auto Redefined = [&](uint8_t R) {
    for (uint32_t J = static_cast<uint32_t>(DefIdx) + 1; J + 1 < Size; ++J)
      if (BB.Insts[J].writesRegister() && BB.Insts[J].Dest == R)
        return true;
    return false;
  };

  bool Refined = false;
  if (DefIdx >= 0) {
    const Instruction &Cmp = BB.Insts[static_cast<uint32_t>(DefIdx)];
    switch (Cmp.Op) {
    case Opcode::CmpLtImm:
      if (Cmp.SrcA != C && !Redefined(Cmp.SrcA)) {
        State[Cmp.SrcA] = refineSignedLess(State[Cmp.SrcA], Cmp.Imm, Truth);
        Refined = true;
      }
      break;
    case Opcode::CmpEqImm:
      if (Cmp.SrcA != C && !Redefined(Cmp.SrcA)) {
        State[Cmp.SrcA] = refineEquals(
            State[Cmp.SrcA], static_cast<uint64_t>(Cmp.Imm), Truth);
        Refined = true;
      }
      break;
    case Opcode::CmpLt:
      if (State[Cmp.SrcB].isConst() && Cmp.SrcA != C && !Redefined(Cmp.SrcA)) {
        State[Cmp.SrcA] = refineSignedLess(
            State[Cmp.SrcA], static_cast<int64_t>(State[Cmp.SrcB].Base),
            Truth);
        Refined = true;
      } else if (State[Cmp.SrcA].isConst() && Cmp.SrcB != C &&
                 !Redefined(Cmp.SrcB) &&
                 static_cast<int64_t>(State[Cmp.SrcA].Base) < INT64_MAX) {
        // a < b with a constant: b >= a+1 on the taken side.
        State[Cmp.SrcB] = refineSignedLess(
            State[Cmp.SrcB], static_cast<int64_t>(State[Cmp.SrcA].Base) + 1,
            !Truth);
        Refined = true;
      }
      break;
    case Opcode::CmpEq:
      if (State[Cmp.SrcB].isConst() && Cmp.SrcA != C && !Redefined(Cmp.SrcA)) {
        State[Cmp.SrcA] =
            refineEquals(State[Cmp.SrcA], State[Cmp.SrcB].Base, Truth);
        Refined = true;
      } else if (State[Cmp.SrcA].isConst() && Cmp.SrcB != C &&
                 !Redefined(Cmp.SrcB)) {
        State[Cmp.SrcB] =
            refineEquals(State[Cmp.SrcB], State[Cmp.SrcA].Base, Truth);
        Refined = true;
      }
      break;
    default:
      break;
    }
    if (Refined)
      State[C] = AbsVal::constant(Truth ? 1 : 0); // compare results are 0/1
  }
  if (!Refined)
    // No representable predicate: at least pin the condition register
    // itself (zero on the else edge, non-zero on the then edge).
    State[C] = refineEquals(State[C], 0, !Truth);
  return State;
}

AddrFacts::AddrFacts(const CFGInfo &G, const ConstantFacts &CF,
                     const ReachingDefs *RD)
    : G(&G), CF(&CF), RD(RD) {
  const Function &F = G.function();
  const uint32_t N = F.numBlocks();
  In.assign(N, {});
  if (N == 0)
    return;
  const unsigned NumRegs = F.numRegs();

  // ConstantFacts entry constants, for precision recovery after widening.
  std::vector<std::vector<ConstVal>> CFEntry(N);
  for (uint32_t B = 0; B < N; ++B)
    if (CF.executable(B)) {
      CFEntry[B].resize(NumRegs);
      for (unsigned R = 0; R < NumRegs; ++R)
        CFEntry[B][R] = CF.valueAt(B, 0, R);
    }

  std::vector<uint32_t> Updates(N, 0);
  std::vector<bool> Queued(N, false);
  std::vector<uint32_t> Work;

  // Entry: frames are zero-initialized.
  In[0].assign(NumRegs, AbsVal::constant(0));
  Work.push_back(0);
  Queued[0] = true;

  const auto Push = [&](uint32_t T, std::vector<AbsVal> S) {
    if (!CF.executable(T))
      return; // mirror ConstantFacts executability
    for (unsigned R = 0; R < NumRegs; ++R)
      if (!S[R].isConst() && !S[R].isBottom() && CFEntry[T][R].isConst())
        S[R] = AbsVal::constant(CFEntry[T][R].Value);
    bool Changed = false;
    if (In[T].empty()) {
      In[T] = std::move(S);
      Changed = true;
    } else {
      for (unsigned R = 0; R < NumRegs; ++R) {
        AbsVal NV = Updates[T] < WidenAt ? joinVals(In[T][R], S[R])
                                         : widenVals(In[T][R], S[R]);
        if (NV != In[T][R] && Updates[T] >= ForceTopAt)
          NV = AbsVal::top();
        if (NV != In[T][R]) {
          In[T][R] = NV;
          Changed = true;
        }
      }
    }
    if (Changed) {
      ++Updates[T];
      if (!Queued[T]) {
        Queued[T] = true;
        Work.push_back(T);
      }
    }
  };

  while (!Work.empty()) {
    const uint32_t B = Work.back();
    Work.pop_back();
    Queued[B] = false;
    if (In[B].empty())
      continue;

    std::vector<AbsVal> Regs = In[B];
    const BasicBlock &BB = F.block(B);
    for (const Instruction &I : BB.Insts)
      applyAddrInstruction(I, Regs);

    const Instruction &Term = BB.terminator();
    if (Term.Op == Opcode::Jmp) {
      Push(Term.ThenTarget, Regs);
    } else if (Term.Op == Opcode::Br) {
      const AbsVal &Cond = Regs[Term.SrcA];
      const ConstVal CFCond = CF.branchCondition(B);
      bool Decided = false, Taken = false;
      if (Cond.isConst()) {
        Decided = true;
        Taken = Cond.Base != 0;
      } else if (CFCond.isConst()) {
        Decided = true;
        Taken = CFCond.Value != 0;
      }
      if (Decided) {
        Push(Taken ? Term.ThenTarget : Term.ElseTarget,
             refineForEdge(BB, Regs, Taken));
      } else if (Term.ThenTarget == Term.ElseTarget) {
        Push(Term.ThenTarget, Regs);
      } else {
        Push(Term.ThenTarget, refineForEdge(BB, Regs, true));
        Push(Term.ElseTarget, refineForEdge(BB, Regs, false));
      }
    }
  }
}

std::vector<AbsVal> AddrFacts::stateAt(uint32_t Block, uint32_t Index) const {
  const Function &F = G->function();
  if (In[Block].empty())
    // Unreached (per this analysis, which can prune more than CF through
    // branch refinement): every register is Bottom.
    return std::vector<AbsVal>(F.numRegs(), AbsVal::bottom());
  std::vector<AbsVal> Regs = In[Block];
  const BasicBlock &BB = F.block(Block);
  for (uint32_t I = 0; I < Index && I < BB.size(); ++I)
    applyAddrInstruction(BB.Insts[I], Regs);
  return Regs;
}

AbsVal AddrFacts::addressOf(uint32_t Block, uint32_t Index) const {
  const Instruction &I = G->function().block(Block).Insts[Index];
  assert((I.Op == Opcode::Load || I.Op == Opcode::Store) &&
         "addressOf wants a memory instruction");
  AbsVal Base = stateAt(Block, Index)[I.SrcA];
  if (!Base.isConst() && !Base.isBottom() && RD)
    // Widening may have lost a constant ReachingDefs still proves (every
    // reaching def is the same MovImm).
    if (const auto C = RD->constantAt(Block, Index, I.SrcA))
      Base = AbsVal::constant(static_cast<uint64_t>(*C));
  return absBinary(Opcode::Add, Base,
                   AbsVal::constant(static_cast<uint64_t>(I.Imm)));
}
