//===- tests/oracle/EngineOracleTest.cpp - Engine vs definitional oracle --===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
// The execution engine against the definitional interpreter
// (tests/oracle/Oracle.h): identical event streams with identical
// completed-instruction counts, StopReasons, retired counts, memory
// images, positions, and -- under mssp::TimingPolicy, the engine's
// block-charged CoreTiming accounting -- cycle counts and timing-model
// state equal to charging every instruction one at a time.  Covered: the
// 12 suite modules, their 48 distillation pairs, the distiller fuzz
// programs, prime-fuel slicing, stop/resume, and faults.
//
// BackendEquivalence runs the engine with no timing, TimingFused with
// CoreTiming; `ctest -R timing_fused` is the stable handle for the latter.
// The MSSP-level pins below were produced by the reference interpreter
// this engine replaced, on the same configurations.
//
//===----------------------------------------------------------------------===//

#include "Differential.h"

#include "../distill/FuzzPrograms.h"
#include "../mssp/MsspResultText.h"

#include "distill/Distiller.h"
#include "ir/IRBuilder.h"
#include "mssp/MsspSimulator.h"
#include "workload/SpecSuite.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

using namespace specctrl;
using namespace specctrl::difftest;
using namespace specctrl::mssp;
using namespace specctrl::workload;

namespace {

/// Long enough to exercise every region and controller gadget; short
/// enough for the fast label.
constexpr uint64_t TestIterations = 1500;
constexpr uint64_t AllFuel = ~0ull >> 1;

std::vector<std::string> suiteNames() {
  std::vector<std::string> Names;
  for (const BenchmarkProfile &P : suiteProfiles())
    Names.push_back(P.Name);
  return Names;
}

class SuiteProgram : public ::testing::TestWithParam<std::string> {
protected:
  SynthProgram synthProgram() {
    return synthesize(
        makeSynthSpecFor(profileByName(GetParam()), TestIterations));
  }
};

/// Both sides of one comparison: engine + recorder, oracle, and (for the
/// timed variant) a CoreTiming on each side.
class UntimedPair {
public:
  UntimedPair(const ir::Module &M, const std::vector<uint64_t> &Memory)
      : Engine(M, Memory), Rec(Engine), Oracle(M, Memory) {}

  void setCodeVersion(uint32_t FuncId, const ir::Function *F) {
    Engine.setCodeVersion(FuncId, F);
    Oracle.setCodeVersion(FuncId, F);
  }
  /// One run on each side with the same budget and stop rule.
  void run(uint64_t Fuel, const std::string &What) {
    const exec::StopReason E = Engine.run(Fuel, Rec);
    const exec::StopReason O = runOracle(Oracle, Fuel, Rec.StopWhen);
    ASSERT_EQ(E, O) << What;
    LastStop = E;
    expectSameState(Engine, Oracle, What);
  }
  void finish(const std::string &What) {
    EXPECT_EQ(LastStop, exec::StopReason::Halted) << What;
    expectSameEvents(Rec.Events, Oracle.Events, What);
    expectSameState(Engine, Oracle, What);
  }

  exec::ThreadedBackend Engine;
  Recorder<exec::NoEvents> Rec;
  oracle::Machine Oracle;
  exec::StopReason LastStop = exec::StopReason::FuelExhausted;
};

class TimedPair {
public:
  TimedPair(const ir::Module &M, const std::vector<uint64_t> &Memory)
      : EngineL2(Machine.L2), OracleL2(Machine.L2),
        EngineTiming(Machine.Leading, &EngineL2, Machine.L2.LatencyCycles,
                     Machine.MemoryLatencyCycles),
        OracleTiming(Machine.Leading, &OracleL2, Machine.L2.LatencyCycles,
                     Machine.MemoryLatencyCycles),
        Engine(M, Memory), Rec(Engine, EngineTiming),
        Oracle(M, Memory, &OracleTiming) {}

  void setCodeVersion(uint32_t FuncId, const ir::Function *F) {
    Engine.setCodeVersion(FuncId, F);
    Oracle.setCodeVersion(FuncId, F);
  }
  void run(uint64_t Fuel, const std::string &What) {
    const exec::StopReason E = Engine.run(Fuel, Rec);
    const exec::StopReason O = runOracle(Oracle, Fuel, Rec.StopWhen);
    ASSERT_EQ(E, O) << What;
    LastStop = E;
    EXPECT_EQ(Engine.instructionsRetired(), Oracle.InstRet) << What;
    EXPECT_EQ(EngineTiming.cycles(), OracleTiming.cycles()) << What;
  }
  void finish(const std::string &What) {
    EXPECT_EQ(LastStop, exec::StopReason::Halted) << What;
    expectSameEvents(Rec.Events, Oracle.Events, What);
    expectSameState(Engine, Oracle, What);
    expectSameTiming(EngineTiming, OracleTiming, What);
  }

  const MachineConfig Machine = MachineConfig();
  CacheModel EngineL2, OracleL2;
  CoreTiming EngineTiming, OracleTiming;
  exec::ThreadedBackend Engine;
  Recorder<TimingPolicy> Rec;
  oracle::Machine Oracle;
  exec::StopReason LastStop = exec::StopReason::FuelExhausted;
};

/// Runs \p Pair to the end in slices of \p Fuel, comparing at every slice
/// boundary.  Returns the number of slices.
template <class PairT>
uint64_t runSliced(PairT &Pair, uint64_t Fuel, const std::string &What) {
  uint64_t Slices = 0;
  do {
    Pair.run(Fuel, What + " slice " + std::to_string(Slices));
    ++Slices;
  } while (!::testing::Test::HasFatalFailure() &&
           Pair.LastStop != exec::StopReason::Halted &&
           Pair.LastStop != exec::StopReason::Fault);
  return Slices;
}

/// Stops after every \p K-th store: the MSSP task-boundary mechanism.
StopPredicate everyKthStore(uint64_t K) {
  return [K, Stores = uint64_t{0}](const oracle::Event &E) mutable {
    return E.K == oracle::Event::Store && ++Stores % K == 0;
  };
}

} // namespace

//===----------------------------------------------------------------------===//
// No timing
//===----------------------------------------------------------------------===//

using BackendEquivalence = SuiteProgram;

TEST_P(BackendEquivalence, OriginalProgramMatches) {
  const SynthProgram P = synthProgram();
  UntimedPair Pair(P.Mod, P.InitialMemory);
  Pair.run(AllFuel, "original");
  Pair.finish("original");
}

// The 48 seed-suite pairs: each region function distilled under its
// dominant-direction assertions and dispatched alone -- the code versions
// the MSSP master runs, with speculative paths the original never takes.
TEST_P(BackendEquivalence, DistilledPairsMatch) {
  const SynthProgram P = synthProgram();
  for (uint32_t FuncId : P.RegionFunctions) {
    const distill::DistillResult Result = distill::distillFunction(
        P.Mod.function(FuncId), fuzz::dominantAssertions(P, FuncId));
    const std::string What =
        GetParam() + "/region-fn-" + std::to_string(FuncId);
    UntimedPair Pair(P.Mod, P.InitialMemory);
    Pair.setCodeVersion(FuncId, &Result.Distilled);
    Pair.run(AllFuel, What);
    Pair.finish(What);
  }
}

// Prime-sized fuel slices cut through blocks and call frames; state and
// position must match at every cut.
TEST_P(BackendEquivalence, FuelSlicingMatchesSingleShot) {
  const SynthProgram P = synthProgram();
  UntimedPair Pair(P.Mod, P.InitialMemory);
  EXPECT_GT(runSliced(Pair, 997, "sliced"), 3u);
  Pair.finish("sliced");
}

// A stop requested from a load event deep in the run (usually mid-block,
// so the stop lands inside a charged stretch), then a resume to the end.
TEST_P(BackendEquivalence, RequestStopResumeMatches) {
  const SynthProgram P = synthProgram();
  UntimedPair Pair(P.Mod, P.InitialMemory);
  bool Fired = false;
  Pair.Rec.StopWhen = [&Fired](const oracle::Event &E) {
    if (Fired || E.K != oracle::Event::Load || E.Done < 12345)
      return false;
    return Fired = true;
  };
  ASSERT_EQ(Pair.Engine.run(AllFuel, Pair.Rec), exec::StopReason::Stopped);
  Fired = false; // the oracle replays the same rule
  ASSERT_EQ(runOracle(Pair.Oracle, AllFuel, Pair.Rec.StopWhen),
            exec::StopReason::Stopped);
  expectSameState(Pair.Engine, Pair.Oracle, "stopped");
  EXPECT_GE(Pair.Engine.instructionsRetired(), 12346u);
  Pair.run(AllFuel, "resumed");
  Pair.finish("stop-resume");
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, BackendEquivalence,
                         ::testing::ValuesIn(suiteNames()),
                         [](const auto &Info) { return Info.param; });

// The distiller fuzz programs: random straight-line ALU code (original and
// cleaned-up versions) and synthesized programs with every deterministic
// site asserted.
TEST(EngineOracle, DistillerFuzzPrograms) {
  for (const uint64_t Seed : {11ull, 222ull, 3333ull}) {
    Rng R(Seed);
    for (int Round = 0; Round < 20; ++Round) {
      ir::Module M;
      fuzz::buildStraightLineModule(M, R);
      const distill::DistillResult Clean =
          distill::distillFunction(M.function(1), distill::DistillRequest{});
      const ir::Function *Versions[] = {&M.function(1), &Clean.Distilled};
      for (const ir::Function *Version : Versions) {
        const std::string What = "straight-line seed " +
                                 std::to_string(Seed) + " round " +
                                 std::to_string(Round);
        TimedPair Pair(M, fuzz::straightLineMemory());
        Pair.setCodeVersion(1, Version);
        Pair.run(AllFuel, What);
        Pair.finish(What);
      }
    }
  }
  for (const uint64_t Seed : {7ull, 77ull}) {
    Rng R(Seed);
    for (int Round = 0; Round < 4; ++Round) {
      const SynthProgram P = synthesize(fuzz::makeDeterministicSynthSpec(R));
      std::vector<distill::DistillResult> Results;
      Results.reserve(P.RegionFunctions.size());
      TimedPair Pair(P.Mod, P.InitialMemory);
      for (uint32_t FuncId : P.RegionFunctions) {
        Results.push_back(distill::distillFunction(
            P.Mod.function(FuncId), fuzz::dominantAssertions(P, FuncId)));
        Pair.setCodeVersion(FuncId, &Results.back().Distilled);
      }
      const std::string What = "synthesized seed " + std::to_string(Seed) +
                               " round " + std::to_string(Round);
      runSliced(Pair, 101, What);
      Pair.finish(What);
    }
  }
}

// Faults stop both sides at the same instruction: a store past the memory
// cap and a call past the depth limit, each retired but without an event.
TEST(EngineOracle, FaultsMatch) {
  ir::Module Store;
  {
    ir::Function &F = Store.createFunction("main", 4);
    ir::IRBuilder B(F);
    B.setBlock(B.makeBlock());
    B.movImm(1, static_cast<int64_t>(exec::ThreadedBackend::MaxMemoryWords));
    B.store(0, 5, 1);
    B.store(1, 0, 1);
    B.halt();
  }
  ir::Module Recurse;
  {
    ir::Function &F = Recurse.createFunction("rec", 2);
    ir::IRBuilder B(F);
    B.setBlock(B.makeBlock());
    B.load(1, 0, 3);
    B.call(0);
    B.ret();
  }
  for (const ir::Module *M : {&Store, &Recurse}) {
    UntimedPair Pair(*M, std::vector<uint64_t>(8, 1));
    Pair.run(AllFuel, "fault");
    EXPECT_EQ(Pair.LastStop, exec::StopReason::Fault);
    expectSameEvents(Pair.Rec.Events, Pair.Oracle.Events, "fault");
    // Faulted executions stay faulted.
    EXPECT_EQ(Pair.Engine.run(AllFuel), exec::StopReason::Fault);
  }
}

//===----------------------------------------------------------------------===//
// CoreTiming charged in block quanta
//===----------------------------------------------------------------------===//

using TimingFused = SuiteProgram;

TEST_P(TimingFused, OriginalTimingBitExact) {
  const SynthProgram P = synthProgram();
  TimedPair Pair(P.Mod, P.InitialMemory);
  Pair.run(AllFuel, "original");
  Pair.finish("original");
}

TEST_P(TimingFused, DistilledPairsTimingBitExact) {
  const SynthProgram P = synthProgram();
  for (uint32_t FuncId : P.RegionFunctions) {
    const distill::DistillResult Result = distill::distillFunction(
        P.Mod.function(FuncId), fuzz::dominantAssertions(P, FuncId));
    const std::string What =
        GetParam() + "/region-fn-" + std::to_string(FuncId);
    TimedPair Pair(P.Mod, P.InitialMemory);
    Pair.setCodeVersion(FuncId, &Result.Distilled);
    Pair.run(AllFuel, What);
    Pair.finish(What);
  }
}

// One bulk issue charge per prime-sized slice equals per-instruction
// charging, with cycles equal at every cut.
TEST_P(TimingFused, SlicedTimingMatchesSingleShot) {
  const SynthProgram P = synthProgram();
  TimedPair Pair(P.Mod, P.InitialMemory);
  EXPECT_GT(runSliced(Pair, 997, "sliced"), 3u);
  Pair.finish("sliced");
}

// A stop from the store hook every 7th store (the MSSP task-boundary
// mechanism), resumed each time: retired counts and cycles equal at every
// stop.
TEST_P(TimingFused, StopResumeTimingBitExact) {
  const SynthProgram P = synthProgram();
  TimedPair Pair(P.Mod, P.InitialMemory);
  // Each side counts stores with its own copy of the rule.
  Pair.Rec.StopWhen = everyKthStore(7);
  const StopPredicate OracleRule = everyKthStore(7);
  uint64_t Stops = 0;
  for (;;) {
    const exec::StopReason E = Pair.Engine.run(AllFuel, Pair.Rec);
    const exec::StopReason O = runOracle(Pair.Oracle, AllFuel, OracleRule);
    ASSERT_EQ(E, O) << "stop " << Stops;
    ASSERT_EQ(Pair.Engine.instructionsRetired(), Pair.Oracle.InstRet)
        << "stop " << Stops;
    ASSERT_EQ(Pair.EngineTiming.cycles(), Pair.OracleTiming.cycles())
        << "stop " << Stops;
    if (E == exec::StopReason::Halted)
      break;
    ASSERT_EQ(E, exec::StopReason::Stopped);
    ++Stops;
  }
  EXPECT_GT(Stops, 3u) << "stop hook never fired";
  Pair.LastStop = exec::StopReason::Halted;
  Pair.finish("stop-resume");
}

// The superscalar baseline (Figs. 7-8's B bars) equals the oracle's
// per-instruction charge, to completion and under an instruction cap.
TEST_P(TimingFused, BaselineCyclesTierInvariant) {
  const SynthProgram P = synthProgram();
  const MachineConfig M;
  for (const uint64_t Cap : {0ull, 50021ull}) {
    CacheModel L2(M.L2);
    CoreTiming Timing(M.Leading, &L2, M.L2.LatencyCycles,
                      M.MemoryLatencyCycles);
    oracle::Machine Oracle(P.Mod, P.InitialMemory, &Timing);
    Oracle.run(Cap ? Cap : AllFuel);
    EXPECT_EQ(simulateSuperscalarBaseline(P, M, Cap), Timing.cycles())
        << "cap " << Cap;
  }
}

namespace {

/// The Fig. 7 short-run control configuration (MsspGoldenTest's).
MsspConfig fig7Config() {
  MsspConfig Cfg;
  Cfg.Control.MonitorPeriod = 1000;
  Cfg.Control.EnableEviction = true;
  Cfg.Control.EvictSaturation = 2000;
  Cfg.Control.WaitPeriod = 100000;
  return Cfg;
}

std::string runMssp(const SynthProgram &P, const MsspConfig &Cfg) {
  MsspSimulator Sim(P, Cfg);
  return testutil::resultText(Sim.run());
}

/// Full MsspResults of the reference interpreter on fig7Config at
/// TestIterations, per suite benchmark.
const char *referenceResult(const std::string &Bench) {
  static const std::pair<const char *, const char *> Pins[] = {
      {"bzip2", "cycles=263006 tasks=376 squashes=0 master=97915 "
                "checker=97915 requests=0 regens=0 hits=0 misses=0 "
                "mispredicts=1626 ctrl=6000/97900/0/0/0/0/0/0/0/0/"
                "ae5d2940cdcbfbdf value=0/0/0/0/0/0/0/0/0/0/d280a40161fff655"},
      {"crafty", "cycles=268461 tasks=376 squashes=0 master=99830 "
                 "checker=99830 requests=0 regens=0 hits=0 misses=0 "
                 "mispredicts=2322 ctrl=6000/99812/0/0/0/0/0/0/0/0/"
                 "ae5d2940cdcbfbdf value=0/0/0/0/0/0/0/0/0/0/d280a40161fff655"},
      {"eon", "cycles=271898 tasks=376 squashes=0 master=96401 "
              "checker=96401 requests=0 regens=0 hits=0 misses=0 "
              "mispredicts=2139 ctrl=6000/96381/0/0/0/0/0/0/0/0/"
              "ae5d2940cdcbfbdf value=0/0/0/0/0/0/0/0/0/0/d280a40161fff655"},
      {"gap", "cycles=258925 tasks=376 squashes=0 master=97492 "
              "checker=97492 requests=0 regens=0 hits=0 misses=0 "
              "mispredicts=1453 ctrl=6000/97475/0/0/0/0/0/0/0/0/"
              "ae5d2940cdcbfbdf value=0/0/0/0/0/0/0/0/0/0/d280a40161fff655"},
      {"gcc", "cycles=258099 tasks=376 squashes=0 master=100721 "
              "checker=100721 requests=0 regens=0 hits=0 misses=0 "
              "mispredicts=1266 ctrl=6000/100702/0/0/0/0/0/0/0/0/"
              "ae5d2940cdcbfbdf value=0/0/0/0/0/0/0/0/0/0/d280a40161fff655"},
      {"gzip", "cycles=265310 tasks=376 squashes=0 master=101305 "
               "checker=101305 requests=0 regens=0 hits=0 misses=0 "
               "mispredicts=1959 ctrl=6000/101285/0/0/0/0/0/0/0/0/"
               "ae5d2940cdcbfbdf value=0/0/0/0/0/0/0/0/0/0/d280a40161fff655"},
      {"mcf", "cycles=266236 tasks=376 squashes=0 master=101499 "
              "checker=101499 requests=0 regens=0 hits=0 misses=0 "
              "mispredicts=2273 ctrl=6000/101479/0/0/0/0/0/0/0/0/"
              "ae5d2940cdcbfbdf value=0/0/0/0/0/0/0/0/0/0/d280a40161fff655"},
      {"parser", "cycles=266634 tasks=376 squashes=0 master=103137 "
                 "checker=103137 requests=0 regens=0 hits=0 misses=0 "
                 "mispredicts=2257 ctrl=6000/103120/0/0/0/0/0/0/0/0/"
                 "ae5d2940cdcbfbdf value=0/0/0/0/0/0/0/0/0/0/d280a40161fff655"},
      {"perl", "cycles=254141 tasks=376 squashes=0 master=101186 "
               "checker=101186 requests=0 regens=0 hits=0 misses=0 "
               "mispredicts=1049 ctrl=6000/101167/0/0/0/0/0/0/0/0/"
               "ae5d2940cdcbfbdf value=0/0/0/0/0/0/0/0/0/0/d280a40161fff655"},
      {"twolf", "cycles=269684 tasks=376 squashes=0 master=99930 "
                "checker=99930 requests=0 regens=0 hits=0 misses=0 "
                "mispredicts=1998 ctrl=6000/99913/0/0/0/0/0/0/0/0/"
                "ae5d2940cdcbfbdf value=0/0/0/0/0/0/0/0/0/0/d280a40161fff655"},
      {"vortex", "cycles=253130 tasks=376 squashes=0 master=105776 "
                 "checker=105776 requests=0 regens=0 hits=0 misses=0 "
                 "mispredicts=779 ctrl=6000/105757/0/0/0/0/0/0/0/0/"
                 "ae5d2940cdcbfbdf value=0/0/0/0/0/0/0/0/0/0/d280a40161fff655"},
      {"vpr", "cycles=268093 tasks=376 squashes=0 master=102175 "
              "checker=102175 requests=0 regens=0 hits=0 misses=0 "
              "mispredicts=2102 ctrl=6000/102160/0/0/0/0/0/0/0/0/"
              "ae5d2940cdcbfbdf value=0/0/0/0/0/0/0/0/0/0/d280a40161fff655"},
  };
  for (const auto &[Name, Text] : Pins)
    if (Bench == Name)
      return Text;
  return "";
}

} // namespace

// The full MSSP simulation -- timing protocol, controller decisions,
// squashes, commit times -- reproduces the reference interpreter's results
// on every suite module.
TEST_P(TimingFused, MsspResultsBitExactAcrossTiers) {
  EXPECT_EQ(runMssp(synthProgram(), fig7Config()),
            referenceResult(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, TimingFused,
                         ::testing::ValuesIn(suiteNames()),
                         [](const auto &Info) { return Info.param; });

// Value speculation routes checker loads (with their completed-instruction
// counts) into the value-invariance controller.
TEST(TimingFusedMssp, ValueSpeculationBitExact) {
  MsspConfig Cfg = fig7Config();
  Cfg.EnableValueSpeculation = true;
  Cfg.ValueControl = Cfg.Control;
  EXPECT_EQ(
      runMssp(synthesize(makeSynthSpecFor(profileByName("gcc"), 10000)), Cfg),
      "cycles=1211781 tasks=2501 squashes=29 master=581625 checker=670979 "
      "requests=26 regens=5 hits=0 misses=5 mispredicts=6905 "
      "ctrl=40000/670960/18221/49/12/1/0/1/0/0/750c3a7e4eabd0db "
      "value=124984/670961/18224/46/12/1/0/1/0/0/a27b117c82ce073d");
}

// Squash-heavy regime (open-loop control keeps misspeculating): restores
// and post-squash resumes.
TEST(TimingFusedMssp, SquashHeavyBitExact) {
  MsspConfig Cfg = fig7Config();
  Cfg.Control.EnableEviction = false;
  EXPECT_EQ(
      runMssp(synthesize(makeSynthSpecFor(profileByName("bzip2"), 10000)),
              Cfg),
      "cycles=1503093 tasks=2501 squashes=230 master=583029 checker=655106 "
      "requests=8 regens=4 hits=0 misses=4 mispredicts=9770 "
      "ctrl=40000/655091/11450/733/8/0/0/0/0/0/6b1b1ba05d31138a "
      "value=0/0/0/0/0/0/0/0/0/0/d280a40161fff655");
}
