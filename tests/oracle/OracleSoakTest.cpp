//===- tests/oracle/OracleSoakTest.cpp - Engine vs oracle at scale --------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
// The differential check of EngineOracleTest at full length: every suite
// module and each of its distillation pairs at 30k loop iterations, over
// 10^8 simulated instructions in total, with CoreTiming on both sides.
// Runs in prime-sized slices, comparing events, retired counts, and
// cycles slice by slice (so memory stays bounded) and the full state at
// the end.  Outside the fast label: a few seconds.
//
//===----------------------------------------------------------------------===//

#include "Differential.h"

#include "../distill/FuzzPrograms.h"

#include "distill/Distiller.h"
#include "workload/SpecSuite.h"

#include <gtest/gtest.h>

#include <span>
#include <string>

using namespace specctrl;
using namespace specctrl::difftest;
using namespace specctrl::mssp;
using namespace specctrl::workload;

namespace {

constexpr uint64_t SoakIterations = 30000;
constexpr uint64_t SliceFuel = 1000003;

/// Runs one program version on both sides to the end; returns the
/// instructions retired.
uint64_t soak(const SynthProgram &P, uint32_t FuncId,
              const ir::Function *Version, const std::string &What) {
  const MachineConfig M;
  CacheModel EngineL2(M.L2), OracleL2(M.L2);
  CoreTiming EngineTiming(M.Leading, &EngineL2, M.L2.LatencyCycles,
                          M.MemoryLatencyCycles);
  CoreTiming OracleTiming(M.Leading, &OracleL2, M.L2.LatencyCycles,
                          M.MemoryLatencyCycles);
  exec::ThreadedBackend Engine(P.Mod, std::span(P.InitialMemory));
  Recorder<TimingPolicy> Rec(Engine, EngineTiming);
  oracle::Machine Oracle(P.Mod, P.InitialMemory, &OracleTiming);
  if (Version) {
    Engine.setCodeVersion(FuncId, Version);
    Oracle.setCodeVersion(FuncId, Version);
  }
  for (uint64_t Slice = 0;; ++Slice) {
    const std::string At = What + " slice " + std::to_string(Slice);
    const exec::StopReason E = Engine.run(SliceFuel, Rec);
    EXPECT_EQ(E, runOracle(Oracle, SliceFuel)) << At;
    EXPECT_EQ(Engine.instructionsRetired(), Oracle.InstRet) << At;
    EXPECT_EQ(EngineTiming.cycles(), OracleTiming.cycles()) << At;
    expectSameEvents(Rec.Events, Oracle.Events, At);
    if (::testing::Test::HasFailure() || E != exec::StopReason::FuelExhausted)
      break;
    Rec.Events.clear();
    Oracle.Events.clear();
  }
  expectSameState(Engine, Oracle, What);
  expectSameTiming(EngineTiming, OracleTiming, What);
  return Engine.instructionsRetired();
}

} // namespace

TEST(OracleSoak, SuiteAndDistilledPairsOverHundredMillionInstructions) {
  uint64_t Total = 0;
  for (const BenchmarkProfile &Profile : suiteProfiles()) {
    const SynthProgram P =
        synthesize(makeSynthSpecFor(Profile, SoakIterations));
    Total += soak(P, 0, nullptr, Profile.Name);
    for (uint32_t FuncId : P.RegionFunctions) {
      const distill::DistillResult Result = distill::distillFunction(
          P.Mod.function(FuncId), fuzz::dominantAssertions(P, FuncId));
      Total += soak(P, FuncId, &Result.Distilled,
                    Profile.Name + "/region-fn-" + std::to_string(FuncId));
    }
    if (::testing::Test::HasFailure())
      return;
  }
  EXPECT_GE(Total, 100000000u);
}
