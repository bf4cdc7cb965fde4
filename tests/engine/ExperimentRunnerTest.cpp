//===- tests/engine/ExperimentRunnerTest.cpp ------------------------------===//
//
// Runner behavior: report layout, the worker count (--jobs 0 is the
// hardware concurrency, and never more workers than cells), event and
// time accounting, failure isolation (a throwing cell must not poison its
// siblings), and the arena schedule (a key's first cell ends before any
// of its siblings starts, and no more keys are resident than workers).
//
//===----------------------------------------------------------------------===//

#include "engine/ExperimentRunner.h"

#include "core/Driver.h"
#include "core/ReactiveController.h"
#include "workload/TraceArena.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace specctrl;
using namespace specctrl::core;
using namespace specctrl::engine;
using namespace specctrl::workload;

namespace {

WorkloadSpec smallSpec(const char *Name, uint64_t Seed,
                       uint64_t Events = 20000) {
  WorkloadSpec Spec;
  Spec.Name = Name;
  Spec.Seed = Seed;
  Spec.RefEvents = Events;
  Spec.TrainEvents = Events / 2;
  Spec.NumPhases = 1;
  SiteSpec Biased;
  Biased.Behavior = BehaviorSpec::fixed(0.999);
  Biased.Weight = 3.0;
  SiteSpec Noise;
  Noise.Behavior = BehaviorSpec::fixed(0.5);
  Noise.Weight = 1.0;
  Spec.Sites = {Biased, Noise};
  return Spec;
}

ReactiveConfig fastConfig() {
  ReactiveConfig Cfg;
  Cfg.MonitorPeriod = 1000;
  Cfg.OptLatency = 0;
  return Cfg;
}

ControllerFactory reactiveFactory() {
  return [](const CellContext &) {
    return std::make_unique<ReactiveController>(fastConfig());
  };
}

/// A controller that throws mid-run: exercises failure isolation.
class ThrowingController final : public SpeculationController {
public:
  BranchVerdict onBranch(SiteId, bool, uint64_t) override {
    if (++Seen > 100)
      throw std::runtime_error("deliberate cell failure");
    return {};
  }
  bool isDeployed(SiteId) const override { return false; }
  bool deployedDirection(SiteId) const override { return false; }
  const ControlStats &stats() const override { return Stats; }
  ControlStats &stats() override { return Stats; }
  const char *name() const override { return "throwing"; }

private:
  uint64_t Seen = 0;
  ControlStats Stats;
};

using Clock = std::chrono::steady_clock;

/// Start and end stamps of every cell of one run, one slot per cell in
/// report order; each cell writes only its own slots.
struct CellStamps {
  std::vector<Clock::time_point> Start, End;
};

/// Ends a controller cell: stamps its slot when the runner drops it.
class StampedController final : public ReactiveController {
public:
  explicit StampedController(Clock::time_point &End)
      : ReactiveController(fastConfig()), End(End) {}
  ~StampedController() override { End = Clock::now(); }

private:
  Clock::time_point &End;
};

/// The arena schedule's fixture: three benchmarks of different lengths,
/// the last under two inputs, so four (benchmark, input) keys; and four
/// columns that alternate controller and task cells, starting with a task
/// column when \p TaskFirst.  Every cell stamps its start and end into
/// \p Stamps; a task cell replays its trace through the plan's arena.
/// The plan's column 0 throws on benchmark \p FailBenchmark (none when
/// out of range).
ExperimentPlan schedulePlan(bool TaskFirst, CellStamps &Stamps,
                            uint32_t FailBenchmark = ~0u) {
  ExperimentPlan Plan;
  auto Arena = std::make_shared<TraceArena>();
  Plan.setTraceArena(Arena);
  Plan.addBenchmark(smallSpec("alpha", 1, 20000));
  Plan.addBenchmark(smallSpec("gamma", 3, 40000));
  WorkloadSpec Beta = smallSpec("beta", 2, 60000);
  Plan.addBenchmark(Beta, {Beta.refInput(), Beta.trainInput()});
  constexpr uint32_t NumConfigs = 4;
  Stamps.Start.assign(4 * NumConfigs, {});
  Stamps.End.assign(4 * NumConfigs, {});
  // Report-order slot of a cell; only the last benchmark has a second
  // input.
  const auto Slot = [](const CellCoord &C) {
    return (C.Benchmark + C.Input) * NumConfigs + C.Config;
  };
  for (uint32_t Col = 0; Col < NumConfigs; ++Col) {
    const auto Fails = [Col, FailBenchmark](const CellContext &Ctx) {
      return Col == 0 && Ctx.Coord.Benchmark == FailBenchmark;
    };
    const std::string Name = "c" + std::to_string(Col);
    if ((Col % 2 == 0) == TaskFirst) {
      Plan.addTaskConfig(Name, [&Stamps, Slot, Arena, Fails](
                                   const CellContext &Ctx) {
        Stamps.Start[Slot(Ctx.Coord)] = Clock::now();
        if (Fails(Ctx))
          throw std::runtime_error("deliberate first-cell failure");
        ReactiveController Controller(fastConfig());
        const ControlStats Stats =
            runTrace(Controller, *Arena->open(Ctx.Spec, Ctx.Input));
        Stamps.End[Slot(Ctx.Coord)] = Clock::now();
        return std::any(Stats);
      });
      continue;
    }
    Plan.addConfig(Name, [&Stamps, Slot, Fails](const CellContext &Ctx)
                             -> std::unique_ptr<SpeculationController> {
      Stamps.Start[Slot(Ctx.Coord)] = Clock::now();
      if (Fails(Ctx))
        return std::make_unique<ThrowingController>();
      return std::make_unique<StampedController>(Stamps.End[Slot(Ctx.Coord)]);
    });
  }
  return Plan;
}

/// A cell's result: a task cell's returned stats, else the runner's.
ControlStats resultOf(const CellResult &Cell) {
  return Cell.Value.has_value() ? std::any_cast<ControlStats>(Cell.Value)
                                : Cell.Stats;
}

} // namespace

TEST(ExperimentRunnerTest, ReportHasStableGridOrder) {
  ExperimentPlan Plan;
  WorkloadSpec A = smallSpec("alpha", 1);
  Plan.addBenchmark(A, {A.refInput(), A.trainInput()});
  Plan.addBenchmark(smallSpec("beta", 2));
  Plan.addConfig("one", reactiveFactory());
  Plan.addConfig("two", reactiveFactory());
  EXPECT_EQ(Plan.numCells(), 6u);

  const RunReport Report = runPlan(Plan, {.Jobs = 4});
  ASSERT_EQ(Report.Cells.size(), 6u);
  EXPECT_EQ(Report.failedCells(), 0u);

  // benchmark-major, then input, then config.
  EXPECT_EQ(Report.Cells[0].Benchmark, "alpha");
  EXPECT_EQ(Report.Cells[0].Input, "ref");
  EXPECT_EQ(Report.Cells[0].Config, "one");
  EXPECT_EQ(Report.Cells[1].Config, "two");
  EXPECT_EQ(Report.Cells[2].Input, "train");
  EXPECT_EQ(Report.Cells[4].Benchmark, "beta");
  EXPECT_EQ(&Report.cell(0, 1, 1), &Report.Cells[3]);
}

TEST(ExperimentRunnerTest, StartsNoMoreWorkersThanCells) {
  ExperimentPlan Plan;
  Plan.addBenchmark(smallSpec("alpha", 1));
  Plan.addBenchmark(smallSpec("beta", 2));
  Plan.addConfig("one", reactiveFactory());
  ASSERT_EQ(Plan.numCells(), 2u);

  const RunReport Serial = runPlan(Plan, {.Jobs = 1});
  const RunReport Wide = runPlan(Plan, {.Jobs = 8});
  EXPECT_EQ(Serial.Jobs, 1u);
  EXPECT_EQ(Wide.Jobs, 2u);
  ASSERT_EQ(Wide.Cells.size(), Serial.Cells.size());
  EXPECT_EQ(Wide.failedCells(), 0u);
  for (size_t I = 0; I < Serial.Cells.size(); ++I) {
    EXPECT_EQ(Wide.Cells[I].Coord, Serial.Cells[I].Coord);
    EXPECT_EQ(Wide.Cells[I].Stats, Serial.Cells[I].Stats);
  }
}

TEST(ExperimentRunnerTest, RunsTheRequestedWorkers) {
  // Each of a run's first Want cells waits (up to 10 s) until Want cells
  // have started, so Want distinct threads must run cells at once.
  const auto Run = [](unsigned Jobs, unsigned Cells, unsigned Want) {
    std::mutex Mutex;
    std::condition_variable Arrived;
    unsigned Started = 0;
    std::set<std::thread::id> Threads;
    ExperimentPlan Plan;
    for (unsigned B = 0; B < Cells; ++B)
      Plan.addBenchmark(smallSpec("alpha", B + 1, 100));
    Plan.addTaskConfig("wait", [&](const CellContext &) {
      std::unique_lock<std::mutex> Lock(Mutex);
      Threads.insert(std::this_thread::get_id());
      ++Started;
      Arrived.notify_all();
      Arrived.wait_for(Lock, std::chrono::seconds(10),
                       [&] { return Started >= Want; });
      return std::any();
    });
    const RunReport Report = runPlan(Plan, {.Jobs = Jobs});
    EXPECT_EQ(Report.failedCells(), 0u);
    EXPECT_EQ(Report.Jobs, Want) << "jobs " << Jobs << ", cells " << Cells;
    EXPECT_EQ(Threads.size(), Want) << "jobs " << Jobs << ", cells " << Cells;
  };
  Run(3, 3, 3);
  Run(3, 5, 3);
  // Jobs 0 is the hardware concurrency, at least one, but no more workers
  // than cells.
  const unsigned Hardware = std::max(1u, std::thread::hardware_concurrency());
  Run(0, Hardware + 1, Hardware);
  Run(0, 1, 1);
}

TEST(ExperimentRunnerTest, CountsEventsAndThroughput) {
  ExperimentPlan Plan;
  Plan.addBenchmark(smallSpec("alpha", 3, 30000));
  Plan.addConfig("one", reactiveFactory());
  const RunReport Report = runPlan(Plan, {.Jobs = 2});
  const CellResult &Cell = Report.cell(0, 0, 0);
  EXPECT_EQ(Cell.Stats.EventsConsumed, 30000u);
  EXPECT_EQ(Cell.Stats.Branches, 30000u);
  EXPECT_GT(Cell.WallSeconds, 0.0);
  EXPECT_GE(Cell.QueueWaitSeconds, 0.0);
  EXPECT_GT(Report.WallSeconds, 0.0);
}

TEST(ExperimentRunnerTest, FailingCellDoesNotPoisonSiblings) {
  ExperimentPlan Plan;
  Plan.addBenchmark(smallSpec("alpha", 1));
  Plan.addBenchmark(smallSpec("beta", 2));
  Plan.addConfig("good", reactiveFactory());
  Plan.addConfig("bad", [](const CellContext &Ctx) // throws on one bench
                 -> std::unique_ptr<SpeculationController> {
    if (Ctx.Coord.Benchmark == 0)
      return std::make_unique<ThrowingController>();
    return std::make_unique<ReactiveController>(fastConfig());
  });

  const RunReport Report = runPlan(Plan, {.Jobs = 4});
  ASSERT_EQ(Report.Cells.size(), 4u);
  EXPECT_EQ(Report.failedCells(), 1u);

  const CellResult &Bad = Report.cell(0, 0, 1);
  EXPECT_TRUE(Bad.Failed);
  EXPECT_EQ(Bad.Error, "deliberate cell failure");

  for (const CellResult &Cell : Report.Cells) {
    if (&Cell == &Bad)
      continue;
    EXPECT_FALSE(Cell.Failed) << Cell.Benchmark << "/" << Cell.Config;
    EXPECT_EQ(Cell.Stats.Branches, 20000u);
  }
}

TEST(ExperimentRunnerTest, NullControllerFactoryIsCapturedAsFailure) {
  ExperimentPlan Plan;
  Plan.addBenchmark(smallSpec("alpha", 1, 2000));
  Plan.addConfig("null", [](const CellContext &) {
    return std::unique_ptr<SpeculationController>();
  });
  const RunReport Report = runPlan(Plan, {.Jobs = 1});
  ASSERT_EQ(Report.failedCells(), 1u);
  EXPECT_NE(Report.Cells[0].Error.find("factory returned null"),
            std::string::npos);
}

TEST(ExperimentRunnerTest, CellLookupThrowsWhenAbsent) {
  ExperimentPlan Plan;
  Plan.addBenchmark(smallSpec("alpha", 1, 2000));
  Plan.addConfig("one", reactiveFactory());
  const RunReport Report = runPlan(Plan, {.Jobs = 1});
  EXPECT_NO_THROW(Report.cell(0, 0, 0));
  EXPECT_THROW(Report.cell(0, 0, 1), std::out_of_range);
  EXPECT_THROW(Report.cell(1, 0, 0), std::out_of_range);
  EXPECT_THROW(RunReport().cell(0, 0, 0), std::out_of_range);
}

TEST(ExperimentRunnerTest, ArenaKeySiblingsStartAfterFirstCellEnds) {
  for (const bool TaskFirst : {false, true}) {
    CellStamps SerialStamps;
    const RunReport Serial =
        runPlan(schedulePlan(TaskFirst, SerialStamps), {.Jobs = 1});
    ASSERT_EQ(Serial.failedCells(), 0u);
    for (unsigned Round = 0; Round < 3; ++Round) {
      CellStamps Stamps;
      const ExperimentPlan Plan = schedulePlan(TaskFirst, Stamps);
      const RunReport Report = runPlan(Plan, {.Jobs = 4});
      ASSERT_EQ(Report.Cells.size(), Serial.Cells.size());
      EXPECT_EQ(Report.failedCells(), 0u);
      for (size_t I = 0; I < Report.Cells.size(); ++I) {
        const CellResult &Cell = Report.Cells[I];
        const size_t First = I - Cell.Coord.Config;
        if (Cell.Coord.Config != 0) {
          EXPECT_GE(Stamps.Start[I], Stamps.End[First])
              << Cell.Benchmark << "/" << Cell.Input << "/" << Cell.Config
              << " task-first " << TaskFirst << " round " << Round;
        }
        EXPECT_EQ(resultOf(Cell), resultOf(Serial.Cells[I]))
            << Cell.Benchmark << "/" << Cell.Input << "/" << Cell.Config;
      }
      EXPECT_EQ(Plan.traceArena()->stats().Materializations, 4u);
    }
  }
}

TEST(ExperimentRunnerTest, FailedFirstCellStillReleasesSiblings) {
  for (const bool TaskFirst : {false, true}) {
    CellStamps SerialStamps;
    const RunReport Serial =
        runPlan(schedulePlan(TaskFirst, SerialStamps, 2), {.Jobs = 1});
    CellStamps Stamps;
    const RunReport Report =
        runPlan(schedulePlan(TaskFirst, Stamps, 2), {.Jobs = 4});
    ASSERT_EQ(Report.Cells.size(), 16u);
    // Beta's two keys lose their first cell; every other cell succeeds
    // with the serial run's result.
    EXPECT_EQ(Report.failedCells(), 2u);
    for (size_t I = 0; I < Report.Cells.size(); ++I) {
      const CellResult &Cell = Report.Cells[I];
      const bool Failing = Cell.Benchmark == "beta" && Cell.Coord.Config == 0;
      EXPECT_EQ(Cell.Failed, Failing)
          << Cell.Benchmark << "/" << Cell.Input << "/" << Cell.Config;
      if (!Failing) {
        EXPECT_EQ(resultOf(Cell), resultOf(Serial.Cells[I]))
            << Cell.Benchmark << "/" << Cell.Input << "/" << Cell.Config;
      }
    }
  }
}

TEST(ExperimentRunnerTest, ArenaHoldsAtMostJobsKeys) {
  for (const unsigned Jobs : {1u, 2u, 4u})
    for (const bool TaskFirst : {false, true}) {
      CellStamps Stamps;
      const ExperimentPlan Plan = schedulePlan(TaskFirst, Stamps);
      const RunReport Report = runPlan(Plan, {.Jobs = Jobs});
      EXPECT_EQ(Report.failedCells(), 0u);
      // A new key starts only when no released cell is queued, and a
      // key's trace is released before its last worker moves on, so the
      // bound is exact at any timing.
      TraceArena &Arena = *Plan.traceArena();
      const TraceArenaStats S = Arena.stats();
      EXPECT_LE(S.PeakResidentKeys, Jobs) << "jobs " << Jobs;
      EXPECT_EQ(S.Materializations, 4u) << "jobs " << Jobs;
      EXPECT_EQ(S.Releases, 4u) << "jobs " << Jobs;

      // The run released every key: opening one materializes it again.
      const BenchmarkAxis &Beta = Plan.benchmarks()[2];
      (void)Arena.open(Beta.Spec, Beta.Inputs[1]);
      EXPECT_EQ(Arena.stats().Materializations, 5u) << "jobs " << Jobs;
    }
}
