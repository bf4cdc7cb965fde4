//===- tests/engine/DeterminismTest.cpp -----------------------------------===//
//
// The engine's core contract: running a plan with --jobs N produces
// bit-identical per-cell ControlStats for every N, because cells share no
// mutable state, report slots are laid out before the run, and every
// workload carries its own seeds, so no result depends on which worker
// ran a cell or when.  Exercised over the full twelve-benchmark paper
// suite at a reduced scale, with two controller configurations.
//
// This is the tier-1 `engine_determinism` ctest target (see
// tests/CMakeLists.txt).
//
//===----------------------------------------------------------------------===//

#include "engine/ExperimentRunner.h"

#include "core/ReactiveController.h"
#include "workload/SpecSuite.h"

#include <gtest/gtest.h>

#include <memory>

using namespace specctrl;
using namespace specctrl::core;
using namespace specctrl::engine;
using namespace specctrl::workload;

namespace {

/// Small enough that the whole 12-benchmark grid runs in a few seconds,
/// large enough that the reactive controller classifies, deploys, and
/// evicts (the stats being compared are not all-zero).
constexpr SuiteScale TestScale{3.0e3, 0.1};

/// Table 2's periods shrunk to match the compressed per-site execution
/// counts at TestScale, so the controller actually classifies, deploys,
/// and evicts within each short run.
ReactiveConfig scaledConfig(ReactiveConfig C) {
  C.MonitorPeriod = 100;
  C.WaitPeriod = 2000;
  C.OptLatency = 0;
  return C;
}

ExperimentPlan fullSuitePlan() {
  ExperimentPlan Plan;
  Plan.setBaseSeed(42);
  for (const BenchmarkProfile &P : suiteProfiles())
    Plan.addBenchmark(makeBenchmark(P, TestScale));
  Plan.addConfig("baseline", [](const CellContext &) {
    return std::make_unique<ReactiveController>(
        scaledConfig(ReactiveConfig::baseline()));
  });
  Plan.addConfig("no-eviction", [](const CellContext &) {
    return std::make_unique<ReactiveController>(
        scaledConfig(ReactiveConfig::noEviction()));
  });
  return Plan;
}

} // namespace

TEST(DeterminismTest, SerialAndParallelSuiteRunsAreIdentical) {
  const ExperimentPlan Plan = fullSuitePlan();
  ASSERT_EQ(Plan.numCells(), 24u);

  const RunReport Serial = runPlan(Plan, {.Jobs = 1});
  const RunReport Parallel = runPlan(Plan, {.Jobs = 4});

  ASSERT_EQ(Serial.Cells.size(), Parallel.Cells.size());
  EXPECT_EQ(Serial.failedCells(), 0u);
  EXPECT_EQ(Parallel.failedCells(), 0u);

  uint64_t NonTrivialCells = 0;
  for (size_t I = 0; I < Serial.Cells.size(); ++I) {
    const CellResult &S = Serial.Cells[I];
    const CellResult &P = Parallel.Cells[I];
    EXPECT_EQ(S.Benchmark, P.Benchmark);
    EXPECT_EQ(S.Input, P.Input);
    EXPECT_EQ(S.Config, P.Config);
    // Whole-struct comparison: every counter, rate input, and the full
    // transition log must match bit-for-bit.
    EXPECT_EQ(S.Stats, P.Stats) << S.Benchmark << "/" << S.Config;
    if (S.Stats.DeployRequests > 0)
      ++NonTrivialCells;
  }
  // The comparison must be exercising real controller activity.
  EXPECT_GT(NonTrivialCells, 0u);
}

TEST(DeterminismTest, RepeatedParallelRunsAreIdentical) {
  const ExperimentPlan Plan = fullSuitePlan();
  const RunReport A = runPlan(Plan, {.Jobs = 4});
  const RunReport B = runPlan(Plan, {.Jobs = 4});
  ASSERT_EQ(A.Cells.size(), B.Cells.size());
  for (size_t I = 0; I < A.Cells.size(); ++I)
    EXPECT_EQ(A.Cells[I].Stats, B.Cells[I].Stats)
        << A.Cells[I].Benchmark << "/" << A.Cells[I].Config;
}
