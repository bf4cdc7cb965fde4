//===- workload/ProgramSynthesizer.cpp - Workload -> SimIR ----------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "workload/ProgramSynthesizer.h"

#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "support/AliasTable.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

using namespace specctrl;
using namespace specctrl::workload;
using namespace specctrl::ir;

namespace {

/// Registers used by region functions.
enum RegionReg : uint8_t {
  RZero = 0, ///< always zero (frames are zero-initialized, never written)
  RCtr = 1,
  ROutcome = 2,
  RCond = 3,
  RAcc = 4,
  RData = 5,
  RCtrNext = 6,
  RTmp = 7,
};
constexpr unsigned NumRegionRegs = 8;

/// Registers used by the main dispatch loop.
enum MainReg : uint8_t {
  MZero = 0,
  MIter = 1,
  MCond = 2,
  MRegion = 3,
};
constexpr unsigned NumMainRegs = 4;

/// Per-site tape placement.
struct SiteLayout {
  uint64_t CounterAddr = 0;
  uint64_t OutcomeBase = 0; ///< tape branches: 0/1 outcomes
  uint64_t ValueBase = 0;   ///< value checks: the comparison bound
  uint64_t DataBase = 0;    ///< value checks: the data operand
  uint64_t TapeLen = 0;
};

/// Emits the accumulator-update arm of a gadget.  Both arms of a branch use
/// different immediates so a wrong-path execution perturbs the accumulator
/// and task verification can detect the misspeculation architecturally.
void emitArm(IRBuilder &B, uint64_t AccAddr, int64_t Key, unsigned Filler,
             bool UseData) {
  B.load(RAcc, RZero, static_cast<int64_t>(AccAddr));
  if (UseData)
    B.binary(Opcode::Add, RAcc, RAcc, RData);
  B.addImm(RAcc, RAcc, Key);
  for (unsigned I = 0; I < Filler; ++I) {
    // Mix with rotating odd constants; cheap, order-sensitive work.
    B.movImm(RTmp, Key * 2654435761ll + static_cast<int64_t>(I) * 40503ll + 1);
    B.binary(I % 2 ? Opcode::Xor : Opcode::Add, RAcc, RAcc, RTmp);
  }
  B.store(RZero, static_cast<int64_t>(AccAddr), RAcc);
}

} // namespace

SynthProgram workload::synthesize(const SynthSpec &Spec) {
  if (Spec.Regions.empty())
    throw std::invalid_argument("synth spec has no regions");
  if (Spec.Iterations == 0)
    throw std::invalid_argument("synth spec has no iterations");

  SynthProgram P;
  P.Iterations = Spec.Iterations;
  Rng R(Spec.Seed);

  const uint32_t NumRegions = static_cast<uint32_t>(Spec.Regions.size());

  // ---- Schedule: which region runs on each iteration ---------------------
  std::vector<double> Weights;
  Weights.reserve(NumRegions);
  for (const SynthRegion &Reg : Spec.Regions)
    Weights.push_back(Reg.Weight);
  AliasTable Dispatch(Weights);

  // Bursty region schedule: real programs run regions in phases, so the
  // dispatcher stays in a region for a geometric burst before re-sampling.
  // This keeps the main loop's dispatch branches predictable-ish instead
  // of pure noise.
  std::vector<uint32_t> Schedule(Spec.Iterations);
  std::vector<uint64_t> RegionCalls(NumRegions, 0);
  uint32_t Current = 0;
  uint64_t BurstLeft = 0;
  for (uint64_t I = 0; I < Spec.Iterations; ++I) {
    if (BurstLeft == 0) {
      Current = NumRegions == 1 ? 0 : Dispatch.sample(R);
      BurstLeft = 1 + R.nextBelow(8);
    }
    --BurstLeft;
    Schedule[I] = Current;
    ++RegionCalls[Current];
  }

  // ---- Memory layout ------------------------------------------------------
  uint64_t Cursor = 0;
  P.IterationAddr = Cursor++;
  P.AccumulatorAddrs.resize(NumRegions);
  for (uint32_t Reg = 0; Reg < NumRegions; ++Reg)
    P.AccumulatorAddrs[Reg] = Cursor++;
  const uint64_t SchedBase = Cursor;
  Cursor += Spec.Iterations;

  std::vector<std::vector<SiteLayout>> Layouts(NumRegions);
  for (uint32_t Reg = 0; Reg < NumRegions; ++Reg) {
    Layouts[Reg].resize(Spec.Regions[Reg].Sites.size());
    for (size_t SI = 0; SI < Spec.Regions[Reg].Sites.size(); ++SI) {
      SiteLayout &L = Layouts[Reg][SI];
      L.TapeLen = RegionCalls[Reg];
      L.CounterAddr = Cursor++;
      P.CounterAddrs.push_back(L.CounterAddr);
      if (Spec.Regions[Reg].Sites[SI].UseValueCheck) {
        L.ValueBase = Cursor;
        Cursor += L.TapeLen;
        L.DataBase = Cursor;
        Cursor += L.TapeLen;
      } else {
        L.OutcomeBase = Cursor;
        Cursor += L.TapeLen;
      }
    }
  }

  P.InitialMemory.assign(Cursor, 0);
  for (uint64_t I = 0; I < Spec.Iterations; ++I)
    P.InitialMemory[SchedBase + I] = Schedule[I];

  // ---- Tape contents ------------------------------------------------------
  for (uint32_t Reg = 0; Reg < NumRegions; ++Reg) {
    for (size_t SI = 0; SI < Spec.Regions[Reg].Sites.size(); ++SI) {
      const SynthSite &Site = Spec.Regions[Reg].Sites[SI];
      const SiteLayout &L = Layouts[Reg][SI];
      Rng SiteR = R.fork((uint64_t(Reg) << 32) | SI);
      BehaviorState State;
      const bool InputFlip = (SiteR.next() & 1) != 0 &&
                             Site.Behavior.Kind ==
                                 BehaviorKind::InputDependent;
      for (uint64_t E = 0; E < L.TapeLen; ++E) {
        // Synthesized programs approximate global phase by execution
        // fraction (the workload-level generator models phases exactly).
        const bool GroupOn = (E * 2 / std::max<uint64_t>(L.TapeLen, 1)) == 0;
        const bool Taken = drawOutcome(Site.Behavior, E, GroupOn, InputFlip,
                                       State, SiteR);
        if (!Site.UseValueCheck) {
          P.InitialMemory[L.OutcomeBase + E] = Taken ? 1 : 0;
          continue;
        }
        // Value check: bound is frequently CommonValue; the data operand
        // realizes the modeled outcome of (data < bound).
        const bool Invariant = SiteR.nextBool(Site.ValueInvariance);
        const int64_t Bound =
            Invariant ? Site.CommonValue
                      : static_cast<int64_t>(SiteR.nextInRange(8, 56));
        const int64_t Data =
            Taken ? static_cast<int64_t>(SiteR.nextBelow(
                        static_cast<uint64_t>(std::max<int64_t>(Bound, 1))))
                  : Bound + static_cast<int64_t>(SiteR.nextBelow(24));
        P.InitialMemory[L.ValueBase + E] = static_cast<uint64_t>(Bound);
        P.InitialMemory[L.DataBase + E] = static_cast<uint64_t>(Data);
      }
    }
  }

  // ---- Region functions ----------------------------------------------------
  SiteId NextSite = 0;
  P.RegionFunctions.resize(NumRegions);
  for (uint32_t Reg = 0; Reg < NumRegions; ++Reg) {
    Function &F = P.Mod.createFunction(
        Spec.Regions[Reg].Name.empty()
            ? "region" + std::to_string(Reg)
            : Spec.Regions[Reg].Name,
        NumRegionRegs);
    P.RegionFunctions[Reg] = F.id();
    IRBuilder B(F);
    uint32_t Entry = B.makeBlock();
    B.setBlock(Entry);
    const uint64_t AccAddr = P.AccumulatorAddrs[Reg];

    for (size_t SI = 0; SI < Spec.Regions[Reg].Sites.size(); ++SI) {
      const SynthSite &Site = Spec.Regions[Reg].Sites[SI];
      const SiteLayout &L = Layouts[Reg][SI];
      const SiteId Id = NextSite++;

      SynthSiteInfo Info;
      Info.Site = Id;
      Info.Region = Reg;
      Info.FunctionId = F.id();
      Info.Behavior = Site.Behavior;
      P.Sites.push_back(Info);

      const uint32_t ThenBB = B.makeBlock();
      const uint32_t ElseBB = B.makeBlock();
      const uint32_t JoinBB = B.makeBlock();

      B.load(RCtr, RZero, static_cast<int64_t>(L.CounterAddr));
      if (Site.UseValueCheck) {
        B.load(ROutcome, RCtr, static_cast<int64_t>(L.ValueBase));
        B.load(RData, RCtr, static_cast<int64_t>(L.DataBase));
      } else {
        B.load(ROutcome, RCtr, static_cast<int64_t>(L.OutcomeBase));
      }
      B.addImm(RCtrNext, RCtr, 1);
      B.store(RZero, static_cast<int64_t>(L.CounterAddr), RCtrNext);
      if (Site.UseValueCheck) {
        B.binary(Opcode::CmpLt, RCond, RData, ROutcome);
        B.br(RCond, ThenBB, ElseBB, Id);
      } else {
        B.br(ROutcome, ThenBB, ElseBB, Id);
      }

      const int64_t Key = static_cast<int64_t>(Id) * 2 + 3;
      B.setBlock(ThenBB);
      emitArm(B, AccAddr, Key, Site.FillerThen, Site.UseValueCheck);
      B.jmp(JoinBB);
      B.setBlock(ElseBB);
      emitArm(B, AccAddr, -Key * 5 - 1, Site.FillerElse, Site.UseValueCheck);
      B.jmp(JoinBB);
      B.setBlock(JoinBB);
    }
    B.ret();
  }

  // ---- Main dispatch loop ---------------------------------------------------
  Function &Main = P.Mod.createFunction("main", NumMainRegs);
  P.MainFunction = Main.id();
  P.Mod.setEntry(Main.id());
  {
    IRBuilder B(Main);
    const uint32_t EntryBB = B.makeBlock();
    const uint32_t HeaderBB = B.makeBlock();
    const uint32_t BodyBB = B.makeBlock();
    const uint32_t IncBB = B.makeBlock();
    const uint32_t ExitBB = B.makeBlock();

    const SiteId LoopSite = NextSite++;
    {
      SynthSiteInfo Info;
      Info.Site = LoopSite;
      Info.Region = 0;
      Info.FunctionId = Main.id();
      Info.Behavior = BehaviorSpec::fixed(
          1.0 - 1.0 / static_cast<double>(Spec.Iterations));
      Info.IsControlSite = true;
      P.Sites.push_back(Info);
    }

    B.setBlock(EntryBB);
    B.jmp(HeaderBB);

    B.setBlock(HeaderBB);
    B.store(MZero, static_cast<int64_t>(P.IterationAddr), MIter);
    B.cmpLtImm(MCond, MIter, static_cast<int64_t>(Spec.Iterations));
    B.br(MCond, BodyBB, ExitBB, LoopSite);

    B.setBlock(BodyBB);
    B.load(MRegion, MIter, static_cast<int64_t>(SchedBase));
    // Dispatch chain: compare against region ids 0..R-2; the last region
    // is the fall-through.
    std::vector<uint32_t> CallBlocks(NumRegions);
    for (uint32_t Reg = 0; Reg < NumRegions; ++Reg)
      CallBlocks[Reg] = B.makeBlock();
    uint32_t Current = BodyBB;
    for (uint32_t Reg = 0; Reg + 1 < NumRegions; ++Reg) {
      const uint32_t NextTest =
          Reg + 2 < NumRegions ? B.makeBlock() : CallBlocks[NumRegions - 1];
      const SiteId DispatchSite = NextSite++;
      SynthSiteInfo Info;
      Info.Site = DispatchSite;
      Info.Region = Reg;
      Info.FunctionId = Main.id();
      Info.Behavior = BehaviorSpec::fixed(
          Weights[Reg] > 0 ? Weights[Reg] : 0.5); // approximate
      Info.IsControlSite = true;
      P.Sites.push_back(Info);

      B.setBlock(Current);
      B.cmpEqImm(MCond, MRegion, Reg);
      B.br(MCond, CallBlocks[Reg], NextTest, DispatchSite);
      Current = NextTest;
    }
    if (NumRegions == 1) {
      B.setBlock(BodyBB);
      B.jmp(CallBlocks[0]);
    }
    for (uint32_t Reg = 0; Reg < NumRegions; ++Reg) {
      B.setBlock(CallBlocks[Reg]);
      B.call(P.RegionFunctions[Reg]);
      B.jmp(IncBB);
    }

    B.setBlock(IncBB);
    B.addImm(MIter, MIter, 1);
    B.jmp(HeaderBB);

    B.setBlock(ExitBB);
    B.halt();
  }

  std::string Error;
  const bool Ok = verifyModule(P.Mod, &Error);
  assert(Ok && "synthesized module failed verification");
  (void)Ok;
  return P;
}

SynthSpec workload::makeDefaultSynthSpec(const std::string &Name,
                                         uint64_t Seed, uint64_t Iterations,
                                         unsigned NumRegions,
                                         double BiasedFraction) {
  assert(NumRegions >= 1 && "need at least one region");
  SynthSpec Spec;
  Spec.Name = Name;
  Spec.Seed = Seed;
  Spec.Iterations = Iterations;
  Rng R(Seed ^ 0x53594E5448ull); // "SYNTH"

  for (unsigned Reg = 0; Reg < NumRegions; ++Reg) {
    SynthRegion Region;
    Region.Name = "region" + std::to_string(Reg);
    Region.Weight = 0.5 + R.nextDouble();
    const unsigned NumSites = 3 + static_cast<unsigned>(R.nextBelow(3));
    const double CallShare = 1.0 / NumRegions; // rough per-region share
    for (unsigned SI = 0; SI < NumSites; ++SI) {
      SynthSite Site;
      Site.FillerThen = 1 + static_cast<unsigned>(R.nextBelow(3));
      Site.FillerElse = 1 + static_cast<unsigned>(R.nextBelow(3));
      const double U = R.nextDouble();
      const bool Dir = R.nextBool(0.5);
      const double High = Dir ? 0.9995 : 0.0005;
      if (U < BiasedFraction * 0.70) {
        Site.Behavior = BehaviorSpec::fixed(High);
      } else if (U < BiasedFraction * 0.85) {
        // A value-check gadget (Fig. 1): biased and value-invariant.
        Site.UseValueCheck = true;
        Site.Behavior = BehaviorSpec::fixed(Dir ? 0.999 : 0.001);
      } else if (U < BiasedFraction) {
        // Behavior-changing: biased then reversed/softened mid-run.
        const uint64_t At = static_cast<uint64_t>(
            Iterations * CallShare * (0.3 + 0.4 * R.nextDouble()));
        Site.Behavior = BehaviorSpec::flipAt(
            High, Dir ? 0.2 * R.nextDouble() : 1.0 - 0.2 * R.nextDouble(),
            std::max<uint64_t>(At, 2000));
      } else {
        Site.Behavior =
            BehaviorSpec::fixed(0.3 + 0.4 * R.nextDouble());
      }
      Region.Sites.push_back(Site);
    }
    Spec.Regions.push_back(Region);
  }
  return Spec;
}
