//===- tests/engine/MsspEnginePlanTest.cpp --------------------------------===//
//
// Task-cell plans (addTaskConfig): the MSSP benches run whole timing
// simulations as experiment cells, so the engine must (a) hand task cells
// the same deterministic context as controller cells, (b) return their
// values through CellResult::Value, (c) isolate their failures, and
// (d) produce bit-identical values serial vs parallel -- that last
// property is what lets fig7/fig8 offer --jobs without perturbing their
// CSVs.  Cells may also share one synthesized program, as perfbench's
// mssp workload does: their engines then borrow one memory image
// concurrently, which must neither change it nor their results.
//
//===----------------------------------------------------------------------===//

#include "engine/ExperimentRunner.h"

#include "core/ReactiveController.h"
#include "mssp/MsspSimulator.h"
#include "workload/SpecSuite.h"

#include <gtest/gtest.h>

#include <any>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

using namespace specctrl;
using namespace specctrl::engine;
using namespace specctrl::mssp;
using namespace specctrl::workload;

namespace {

/// A small MSSP simulation cell, keyed off the axis' benchmark name --
/// the same shape the fig7/fig8 benches use.
std::any runMsspCell(const CellContext &Ctx, uint64_t Iterations) {
  const SynthProgram Program = synthesize(
      makeSynthSpecFor(profileByName(Ctx.Spec.Name), Iterations));
  MsspConfig Cfg;
  Cfg.Control.MonitorPeriod = 1000;
  Cfg.Control.EnableEviction = true;
  Cfg.Control.EvictSaturation = 2000;
  Cfg.Control.WaitPeriod = 100000;
  MsspSimulator Sim(Program, Cfg);
  return Sim.run();
}

ExperimentPlan msspPlan(uint64_t Iterations) {
  ExperimentPlan Plan;
  Plan.addBenchmark(makeBenchmark("bzip2"));
  Plan.addBenchmark(makeBenchmark("gcc"));
  Plan.addTaskConfig("mssp", [Iterations](const CellContext &Ctx) {
    return runMsspCell(Ctx, Iterations);
  });
  Plan.addTaskConfig("baseline", [Iterations](const CellContext &Ctx) {
    const SynthProgram Program = synthesize(
        makeSynthSpecFor(profileByName(Ctx.Spec.Name), Iterations));
    return std::any(
        simulateSuperscalarBaseline(Program, MachineConfig()));
  });
  return Plan;
}

void expectSameResult(const MsspResult &A, const MsspResult &B,
                      const std::string &Tag) {
  EXPECT_EQ(A.TotalCycles, B.TotalCycles) << Tag;
  EXPECT_EQ(A.Tasks, B.Tasks) << Tag;
  EXPECT_EQ(A.TaskSquashes, B.TaskSquashes) << Tag;
  EXPECT_EQ(A.MasterInstructions, B.MasterInstructions) << Tag;
  EXPECT_EQ(A.CheckerInstructions, B.CheckerInstructions) << Tag;
  EXPECT_EQ(A.Regenerations, B.Regenerations) << Tag;
  EXPECT_EQ(A.DistillCacheHits, B.DistillCacheHits) << Tag;
  EXPECT_EQ(A.DistillCacheMisses, B.DistillCacheMisses) << Tag;
  EXPECT_EQ(A.Controller.CorrectSpecs, B.Controller.CorrectSpecs) << Tag;
  EXPECT_EQ(A.Controller.IncorrectSpecs, B.Controller.IncorrectSpecs)
      << Tag;
}

TEST(MsspEnginePlanTest, TaskCellsReturnValues) {
  const ExperimentPlan Plan = msspPlan(2000);
  const RunReport Report = runPlan(Plan, {.Jobs = 1});
  ASSERT_EQ(Report.Cells.size(), 4u);
  EXPECT_EQ(Report.failedCells(), 0u);
  for (uint32_t B = 0; B < 2; ++B) {
    const MsspResult R =
        std::any_cast<MsspResult>(Report.cell(B, 0, 0).Value);
    EXPECT_GT(R.Tasks, 0u);
    EXPECT_GT(std::any_cast<uint64_t>(Report.cell(B, 0, 1).Value), 0u);
  }
  // Task cells have no controller stats.
  EXPECT_EQ(Report.Cells[0].Stats.EventsConsumed, 0u);
}

TEST(MsspEnginePlanTest, SerialAndParallelBitIdentical) {
  const ExperimentPlan Plan = msspPlan(2000);
  const RunReport Serial = runPlan(Plan, {.Jobs = 1});
  const RunReport Parallel = runPlan(Plan, {.Jobs = 4});
  ASSERT_EQ(Serial.Cells.size(), Parallel.Cells.size());
  EXPECT_EQ(Parallel.Jobs, 4u);
  for (uint32_t B = 0; B < 2; ++B) {
    expectSameResult(
        std::any_cast<MsspResult>(Serial.cell(B, 0, 0).Value),
        std::any_cast<MsspResult>(Parallel.cell(B, 0, 0).Value),
        "bench" + std::to_string(B));
    EXPECT_EQ(std::any_cast<uint64_t>(Serial.cell(B, 0, 1).Value),
              std::any_cast<uint64_t>(Parallel.cell(B, 0, 1).Value));
  }
}

TEST(MsspEnginePlanTest, CellsOverOneSharedProgramMatchSerial) {
  // Each benchmark's program is synthesized once, before the plan, and
  // every cell of the benchmark runs over it: four MSSP control columns
  // (open and closed loop, value speculation, a nonzero optimization
  // latency) and the superscalar baseline.
  const char *const Benchmarks[] = {"bzip2", "gcc"};
  std::vector<SynthProgram> Programs;
  ExperimentPlan Plan;
  for (const char *Name : Benchmarks) {
    Plan.addBenchmark(makeBenchmark(Name));
    Programs.push_back(
        synthesize(makeSynthSpecFor(profileByName(Name), 2000)));
  }
  std::vector<std::vector<uint64_t>> Images;
  for (const SynthProgram &P : Programs)
    Images.push_back(P.InitialMemory);

  MsspConfig Closed;
  Closed.Control.MonitorPeriod = 1000;
  Closed.Control.EvictSaturation = 2000;
  Closed.Control.WaitPeriod = 100000;
  MsspConfig Open = Closed;
  Open.Control.EnableEviction = false;
  MsspConfig Value = Closed;
  Value.EnableValueSpeculation = true;
  Value.ValueControl = Value.Control;
  MsspConfig Latency = Closed;
  Latency.OptLatencyCycles = 100000;
  for (const auto &[Name, Cfg] :
       {std::pair<const char *, MsspConfig>{"closed", Closed},
        {"open", Open},
        {"value", Value},
        {"latency", Latency}}) {
    Plan.addTaskConfig(Name, [&Programs, Cfg](const CellContext &Ctx) {
      MsspSimulator Sim(Programs[Ctx.Coord.Benchmark], Cfg);
      return std::any(Sim.run());
    });
  }
  Plan.addTaskConfig("baseline", [&Programs](const CellContext &Ctx) {
    return std::any(simulateSuperscalarBaseline(
        Programs[Ctx.Coord.Benchmark], MachineConfig()));
  });

  const RunReport Serial = runPlan(Plan, {.Jobs = 1});
  const RunReport Parallel = runPlan(Plan, {.Jobs = 4});
  ASSERT_EQ(Serial.failedCells(), 0u);
  ASSERT_EQ(Parallel.failedCells(), 0u);
  for (uint32_t B = 0; B < 2; ++B) {
    for (uint32_t C = 0; C < 4; ++C) {
      const std::string Tag =
          std::string(Benchmarks[B]) + " column " + std::to_string(C);
      const MsspResult S =
          std::any_cast<MsspResult>(Serial.cell(B, 0, C).Value);
      const MsspResult P =
          std::any_cast<MsspResult>(Parallel.cell(B, 0, C).Value);
      expectSameResult(S, P, Tag);
      EXPECT_TRUE(S.Controller == P.Controller) << Tag;
      EXPECT_TRUE(S.ValueController == P.ValueController) << Tag;
      EXPECT_GT(S.Tasks, 0u) << Tag;
    }
    EXPECT_EQ(std::any_cast<uint64_t>(Serial.cell(B, 0, 4).Value),
              std::any_cast<uint64_t>(Parallel.cell(B, 0, 4).Value));
    // Every engine stored into private pages, never into the image.
    EXPECT_TRUE(Programs[B].InitialMemory == Images[B]) << Benchmarks[B];
  }
}

TEST(MsspEnginePlanTest, TaskCellContextIsDeterministic) {
  ExperimentPlan Plan;
  Plan.setBaseSeed(42);
  Plan.addBenchmark(makeBenchmark("bzip2"));
  Plan.addBenchmark(makeBenchmark("gcc"));
  Plan.addTaskConfig("context", [](const CellContext &Ctx) {
    EXPECT_EQ(Ctx.BaseSeed, 42u);
    return std::any(Ctx.Spec.Name + "/" + Ctx.Input.Name + "/" +
                    std::to_string(Ctx.Coord.Benchmark));
  });
  const RunReport Report = runPlan(Plan, {.Jobs = 2});
  ASSERT_EQ(Report.failedCells(), 0u);
  EXPECT_EQ(std::any_cast<std::string>(Report.cell(0, 0, 0).Value),
            "bzip2/ref/0");
  EXPECT_EQ(std::any_cast<std::string>(Report.cell(1, 0, 0).Value),
            "gcc/ref/1");
}

TEST(MsspEnginePlanTest, TaskCellFailureIsIsolated) {
  ExperimentPlan Plan;
  Plan.addBenchmark(makeBenchmark("bzip2"));
  Plan.addBenchmark(makeBenchmark("gcc"));
  Plan.addTaskConfig("task", [](const CellContext &Ctx) {
    if (Ctx.Spec.Name == "bzip2")
      throw std::runtime_error("task cell exploded");
    return std::any(uint64_t{7});
  });
  const RunReport Report = runPlan(Plan, {.Jobs = 2});
  ASSERT_EQ(Report.Cells.size(), 2u);
  EXPECT_TRUE(Report.cell(0, 0, 0).Failed);
  EXPECT_EQ(Report.cell(0, 0, 0).Error, "task cell exploded");
  EXPECT_FALSE(Report.cell(1, 0, 0).Failed);
  EXPECT_EQ(std::any_cast<uint64_t>(Report.cell(1, 0, 0).Value), 7u);
}

TEST(MsspEnginePlanTest, MixedControllerAndTaskColumns) {
  ExperimentPlan Plan;
  Plan.addBenchmark(makeBenchmark("bzip2"));
  Plan.addConfig("reactive", [](const CellContext &) {
    core::ReactiveConfig Cfg;
    Cfg.MonitorPeriod = 1000;
    Cfg.OptLatency = 0;
    return std::make_unique<core::ReactiveController>(Cfg);
  });
  Plan.addTaskConfig("task",
                     [](const CellContext &) { return std::any(int{3}); });
  const RunReport Report = runPlan(Plan, {.Jobs = 2});
  ASSERT_EQ(Report.failedCells(), 0u);
  // Controller column: trace ran, no Value.
  EXPECT_GT(Report.cell(0, 0, 0).Stats.EventsConsumed, 0u);
  EXPECT_FALSE(Report.cell(0, 0, 0).Value.has_value());
  // Task column: Value set, no controller stats.
  EXPECT_EQ(std::any_cast<int>(Report.cell(0, 0, 1).Value), 3);
  EXPECT_EQ(Report.cell(0, 0, 1).Stats.EventsConsumed, 0u);
}

} // namespace
