//===- tests/distill/FuzzPrograms.h - Random SimIR programs -----*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
//
// The random programs of the distiller fuzz tests, shared with the engine's
// differential test against the definitional interpreter:
//
//  * straight-line ALU programs: a main that calls one random function of
//    loads from a small input region, ALU soup over 8 registers, and
//    stores to an output region;
//  * synthesized programs with deterministic branches, whose true
//    directions can be asserted without ever misspeculating.
//
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_TESTS_DISTILL_FUZZPROGRAMS_H
#define SPECCTRL_TESTS_DISTILL_FUZZPROGRAMS_H

#include "distill/Distiller.h"
#include "ir/IRBuilder.h"
#include "support/Rng.h"
#include "workload/ProgramSynthesizer.h"

#include <iterator>
#include <vector>

namespace specctrl {
namespace fuzz {

/// Builds a random straight-line program: ALU soup over 8 registers with
/// loads from a small input region and stores to an output region.
inline ir::Function makeRandomStraightLine(Rng &R, unsigned Length) {
  using namespace ir;
  Function F("fuzz", 0, 8);
  IRBuilder B(F);
  B.setBlock(B.makeBlock());
  const Opcode AluOps[] = {Opcode::Add, Opcode::Sub, Opcode::Mul,
                           Opcode::And, Opcode::Or,  Opcode::Xor,
                           Opcode::Shl, Opcode::Shr, Opcode::CmpLt,
                           Opcode::CmpEq};
  for (unsigned I = 0; I < Length; ++I) {
    const uint8_t Rd = 1 + static_cast<uint8_t>(R.nextBelow(7));
    switch (R.nextBelow(6)) {
    case 0:
      B.movImm(Rd, static_cast<int64_t>(R.next() % 1000) - 500);
      break;
    case 1:
      B.load(Rd, 0, static_cast<int64_t>(R.nextBelow(8)));
      break;
    case 2:
      B.addImm(Rd, 1 + static_cast<uint8_t>(R.nextBelow(7)),
               static_cast<int64_t>(R.nextBelow(64)) - 32);
      break;
    case 3:
      B.cmpLtImm(Rd, 1 + static_cast<uint8_t>(R.nextBelow(7)),
                 static_cast<int64_t>(R.nextBelow(100)));
      break;
    case 4:
      B.store(0, 16 + static_cast<int64_t>(R.nextBelow(8)),
              1 + static_cast<uint8_t>(R.nextBelow(7)));
      break;
    default:
      B.binary(AluOps[R.nextBelow(std::size(AluOps))], Rd,
               1 + static_cast<uint8_t>(R.nextBelow(7)),
               1 + static_cast<uint8_t>(R.nextBelow(7)));
      break;
    }
  }
  // Flush every register so DCE cannot legally delete everything.
  for (uint8_t Reg = 1; Reg < 8; ++Reg)
    B.store(0, 32 + Reg, Reg);
  B.ret();
  return F;
}

/// Fills \p M with main (function 0: call 1, halt) and a random
/// straight-line function 1.
inline void buildStraightLineModule(ir::Module &M, Rng &R) {
  ir::Function &Main = M.createFunction("main", 2);
  {
    ir::IRBuilder B(Main);
    B.setBlock(B.makeBlock());
    B.call(1);
    B.halt();
  }
  ir::Function &F = M.createFunction("fuzz", 8);
  F = makeRandomStraightLine(R, 10 + static_cast<unsigned>(R.nextBelow(60)));
  // createFunction assigned id 1; the random builder used id 0.
  ir::Function Fixed("fuzz", 1, 8);
  Fixed.blocks() = F.blocks();
  F = Fixed;
}

/// The straight-line programs' initial memory: 8 input words, zeros above.
inline std::vector<uint64_t> straightLineMemory() {
  std::vector<uint64_t> Memory(64, 0);
  for (size_t I = 0; I < 8; ++I)
    Memory[I] = 0x9E3779B97F4A7C15ull * (I + 1);
  return Memory;
}

/// A random synthesized program whose branches are deterministic, so
/// asserting their true directions never misspeculates.
inline workload::SynthSpec makeDeterministicSynthSpec(Rng &R) {
  using namespace workload;
  SynthSpec Spec;
  Spec.Name = "fuzz";
  Spec.Seed = R.next();
  Spec.Iterations = 300 + R.nextBelow(700);
  const unsigned NumRegions = 1 + static_cast<unsigned>(R.nextBelow(3));
  for (unsigned Reg = 0; Reg < NumRegions; ++Reg) {
    SynthRegion Region;
    Region.Weight = 0.5 + R.nextDouble();
    const unsigned NumSites = 1 + static_cast<unsigned>(R.nextBelow(4));
    for (unsigned SI = 0; SI < NumSites; ++SI) {
      SynthSite Site;
      Site.FillerThen = static_cast<unsigned>(R.nextBelow(3));
      Site.FillerElse = static_cast<unsigned>(R.nextBelow(3));
      Site.Behavior = BehaviorSpec::fixed(R.nextBool(0.5) ? 1.0 : 0.0);
      Region.Sites.push_back(Site);
    }
    Spec.Regions.push_back(Region);
  }
  return Spec;
}

/// Asserts every gadget site of region \p FuncId to its dominant
/// direction (the true one for deterministic sites).
inline distill::DistillRequest
dominantAssertions(const workload::SynthProgram &P, uint32_t FuncId) {
  distill::DistillRequest Request;
  for (const workload::SynthSiteInfo &Info : P.Sites)
    if (!Info.IsControlSite && Info.FunctionId == FuncId)
      Request.BranchAssertions[Info.Site] = Info.Behavior.BiasA >= 0.5;
  return Request;
}

} // namespace fuzz
} // namespace specctrl

#endif // SPECCTRL_TESTS_DISTILL_FUZZPROGRAMS_H
