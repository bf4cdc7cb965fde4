//===- tests/mssp/MsspProtocolTest.cpp ------------------------------------===//
//
// Protocol-level MSSP tests: determinism, checkpoint-buffer back-pressure,
// task-size accounting, and the correlated-misspeculation folding of
// Sec. 4.3.
//
//===----------------------------------------------------------------------===//

#include "mssp/MsspSimulator.h"

#include <gtest/gtest.h>

using namespace specctrl;
using namespace specctrl::mssp;
using namespace specctrl::workload;

namespace {

SynthProgram makeProgram(uint64_t Iterations, double FlipShare) {
  SynthSpec Spec;
  Spec.Name = "protocol";
  Spec.Seed = 99;
  Spec.Iterations = Iterations;
  SynthRegion Region;
  SynthSite A, B, C;
  A.Behavior = BehaviorSpec::fixed(0.9995);
  B.Behavior = BehaviorSpec::fixed(0.0005);
  C.Behavior = FlipShare > 0
                   ? BehaviorSpec::flipAt(0.9995, 0.0005,
                                          static_cast<uint64_t>(
                                              Iterations * FlipShare))
                   : BehaviorSpec::fixed(0.9995);
  Region.Sites = {A, B, C};
  Spec.Regions = {Region};
  return synthesize(Spec);
}

MsspConfig fastConfig() {
  MsspConfig Cfg;
  Cfg.Control.MonitorPeriod = 1000;
  Cfg.Control.EvictSaturation = 2000;
  Cfg.Control.WaitPeriod = 50000;
  return Cfg;
}

} // namespace

TEST(MsspProtocolTest, ResultsAreDeterministic) {
  auto Run = [] {
    SynthProgram P = makeProgram(20000, 0.4);
    MsspSimulator Sim(P, fastConfig());
    return Sim.run();
  };
  const MsspResult A = Run();
  const MsspResult B = Run();
  EXPECT_EQ(A.TotalCycles, B.TotalCycles);
  EXPECT_EQ(A.TaskSquashes, B.TaskSquashes);
  EXPECT_EQ(A.MasterInstructions, B.MasterInstructions);
  EXPECT_EQ(A.Regenerations, B.Regenerations);
  EXPECT_EQ(A.Controller.CorrectSpecs, B.Controller.CorrectSpecs);
}

TEST(MsspProtocolTest, TinyCheckpointBufferStillCorrect) {
  SynthProgram P = makeProgram(20000, 0.4);
  MsspConfig Cfg = fastConfig();
  Cfg.MaxOutstandingTasks = 1; // maximal back-pressure
  MsspSimulator Sim(P, Cfg);
  const MsspResult Tight = Sim.run();

  SynthProgram P2 = makeProgram(20000, 0.4);
  MsspConfig Wide = fastConfig();
  Wide.MaxOutstandingTasks = 64;
  MsspSimulator Sim2(P2, Wide);
  const MsspResult Loose = Sim2.run();

  // Same architectural work; the tight buffer can only cost time.
  EXPECT_EQ(Tight.CheckerInstructions, Loose.CheckerInstructions);
  EXPECT_GE(Tight.TotalCycles, Loose.TotalCycles);
}

TEST(MsspProtocolTest, TaskCountMatchesGranularity) {
  for (unsigned TaskIters : {1u, 5u, 8u}) {
    SynthProgram P = makeProgram(16000, 0.0);
    MsspConfig Cfg = fastConfig();
    Cfg.TaskIterations = TaskIters;
    MsspSimulator Sim(P, Cfg);
    const MsspResult R = Sim.run();
    // Boundary tasks plus the loop-exit segment.
    const uint64_t Expected = 16000 / TaskIters + (16000 % TaskIters ? 1 : 0)
                              + (16000 % TaskIters ? 0 : 1);
    EXPECT_EQ(R.Tasks, Expected) << "task iters " << TaskIters;
  }
}

TEST(MsspProtocolTest, LargerTasksFoldMoreMisspeculations) {
  // Sec. 4.3: several branch misspeculations inside one task = one squash.
  auto SquashesAt = [](unsigned TaskIters) {
    SynthProgram P = makeProgram(40000, 0.2);
    MsspConfig Cfg = fastConfig();
    Cfg.Control.EnableEviction = false; // keep misspeculating
    Cfg.TaskIterations = TaskIters;
    MsspSimulator Sim(P, Cfg);
    return Sim.run().TaskSquashes;
  };
  const uint64_t Small = SquashesAt(1);
  const uint64_t Large = SquashesAt(16);
  EXPECT_GT(Small, Large);
}

TEST(MsspProtocolTest, InstructionCapStopsRun) {
  SynthProgram P = makeProgram(100000, 0.0);
  MsspConfig Cfg = fastConfig();
  Cfg.MaxInstructions = 200000;
  MsspSimulator Sim(P, Cfg);
  const MsspResult R = Sim.run();
  EXPECT_GE(R.CheckerInstructions, 200000u);
  // Stopped near the cap, well before the whole program.
  EXPECT_LT(R.CheckerInstructions, 260000u);
}

TEST(MsspProtocolTest, NoSpeculationConfigNeverRegenerates) {
  // With an impossible selection threshold nothing is ever deployed: MSSP
  // degrades to "master == original" and must still be architecturally
  // correct with zero squashes.
  SynthProgram P = makeProgram(20000, 0.4);
  MsspConfig Cfg = fastConfig();
  Cfg.Control.MonitorPeriod = ~0ull >> 1; // never classified
  MsspSimulator Sim(P, Cfg);
  const MsspResult R = Sim.run();
  EXPECT_EQ(R.Regenerations, 0u);
  EXPECT_EQ(R.TaskSquashes, 0u);
  EXPECT_EQ(R.MasterInstructions, R.CheckerInstructions);
}

TEST(MsspProtocolTest, ReactiveValueSpeculationSurvivesConstantChange) {
  // A region whose value-check bound is invariant at 32, then changes:
  // reactive value control must deploy the constant, squash a bounded
  // number of times when it goes stale, evict it, and keep the program
  // architecturally correct.
  SynthSpec Spec;
  Spec.Name = "vflip";
  Spec.Seed = 31;
  Spec.Iterations = 40000;
  SynthRegion Region;
  SynthSite VC;
  VC.UseValueCheck = true;
  VC.Behavior = BehaviorSpec::fixed(0.7); // branch itself unbiased
  VC.ValueInvariance = 0.999;
  SynthSite Plain;
  Plain.Behavior = BehaviorSpec::fixed(0.9995);
  Region.Sites = {VC, Plain};
  Spec.Regions = {Region};
  SynthProgram P = synthesize(Spec);

  MsspConfig Cfg = fastConfig();
  Cfg.EnableValueSpeculation = true;
  Cfg.ValueControl = Cfg.Control;
  MsspSimulator Sim(P, Cfg);
  const MsspResult R = Sim.run();

  // The value controller classified the bound load...
  EXPECT_GT(R.ValueController.everBiasedCount(), 0u);
  // ...and stale constants cost bounded squashes, not a crashloop.
  EXPECT_LT(R.TaskSquashes, R.Tasks / 10);

  // Architectural correctness end to end.
  SynthProgram Ref = synthesize(Spec);
  exec::ThreadedBackend Interp(Ref.Mod, Ref.InitialMemory);
  ASSERT_EQ(Interp.run(~0ull >> 1), exec::StopReason::Halted);
  EXPECT_EQ(R.CheckerInstructions, Interp.instructionsRetired());
}

TEST(MsspProtocolTest, SquashRecoveryKeepsCheckerAuthoritative) {
  // Open loop on a flipping site: heavy squashing, but the checker's
  // instruction stream must be exactly the plain architectural run.
  SynthProgram P = makeProgram(30000, 0.3);
  MsspConfig Cfg = fastConfig();
  Cfg.Control.EnableEviction = false;
  MsspSimulator Sim(P, Cfg);
  const MsspResult R = Sim.run();
  EXPECT_GT(R.TaskSquashes, 100u);

  SynthProgram Ref = makeProgram(30000, 0.3);
  exec::ThreadedBackend Interp(Ref.Mod, Ref.InitialMemory);
  ASSERT_EQ(Interp.run(~0ull >> 1), exec::StopReason::Halted);
  EXPECT_EQ(R.CheckerInstructions, Interp.instructionsRetired());
}
