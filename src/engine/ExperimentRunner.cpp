//===- engine/ExperimentRunner.cpp - Parallel plan execution --------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "engine/ExperimentRunner.h"

#include "core/Driver.h"
#include "engine/ThreadPool.h"
#include "workload/TraceArena.h"
#include "workload/TraceGenerator.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <span>
#include <stdexcept>

using namespace specctrl;
using namespace specctrl::engine;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start, Clock::time_point End) {
  return std::chrono::duration<double>(End - Start).count();
}

/// Runs one laid-out cell of \p Plan: constructs all per-cell state from
/// the plan (controller, event source), feeds the whole trace, and
/// records stats/metrics into \p Cell.  Exceptions are captured into
/// Cell.Failed/Error instead of propagating (failure isolation).  Safe to
/// call from any worker: the only shared state touched is the plan's
/// trace arena, which is internally synchronized.
void runPlanCell(const ExperimentPlan &Plan, CellResult &Cell) {
  const Clock::time_point Start = Clock::now();
  try {
    const BenchmarkAxis &Bench = Plan.benchmarks()[Cell.Coord.Benchmark];
    const workload::InputConfig &Input = Bench.Inputs[Cell.Coord.Input];
    const ConfigAxis &Config = Plan.configs()[Cell.Coord.Config];

    const CellContext Ctx{Bench.Spec, Input, Cell.Coord, Cell.Seed,
                          Plan.baseSeed()};
    if (Config.Run) {
      // Task cell: the column's runner is the whole cell.
      Cell.Value = Config.Run(Ctx);
      Cell.WallSeconds = secondsSince(Start, Clock::now());
      return;
    }
    std::unique_ptr<core::SpeculationController> Controller =
        Config.Make(Ctx);
    if (!Controller)
      throw std::runtime_error("controller factory returned null for '" +
                               Config.Name + "'");

    // With a plan arena the cell replays the shared materialization
    // (first cell per key generates, the rest decode); without one it
    // synthesizes its own stream.  Identical events either way.
    const std::unique_ptr<workload::EventSource> Source =
        Plan.traceArena()
            ? Plan.traceArena()->open(Bench.Spec, Input)
            : std::make_unique<workload::TraceGenerator>(Bench.Spec, Input);
    const core::ControlStats &Stats = core::runTrace(*Controller, *Source);
    Cell.Stats = Stats;
    Cell.Events = Stats.EventsConsumed;
  } catch (const std::exception &E) {
    Cell.Failed = true;
    Cell.Error = E.what();
  } catch (...) {
    Cell.Failed = true;
    Cell.Error = "unknown exception";
  }
  Cell.WallSeconds = secondsSince(Start, Clock::now());
}

/// Queues \p Cell on \p Pool; its queue wait runs from now, the moment it
/// becomes ready.  \p Then, if set, runs on the worker once the cell ends,
/// whether it succeeded or failed.
void submitCell(ThreadPool &Pool, const ExperimentPlan &Plan,
                CellResult &Cell, std::function<void()> Then = {}) {
  const Clock::time_point Ready = Clock::now();
  Pool.submit([&Plan, &Cell, Ready, Then = std::move(Then)] {
    Cell.QueueWaitSeconds = secondsSince(Ready, Clock::now());
    runPlanCell(Plan, Cell);
    if (Then)
      Then();
  });
}

/// One CellResult slot per plan cell in the stable benchmark-major report
/// order (benchmark, then input, then config), with names and the
/// deterministic cell seed filled in and all run fields zeroed.
std::vector<CellResult> layoutPlanCells(const ExperimentPlan &Plan) {
  const std::vector<BenchmarkAxis> &Benchmarks = Plan.benchmarks();
  const std::vector<ConfigAxis> &Configs = Plan.configs();
  std::vector<CellResult> Cells;
  Cells.reserve(Plan.numCells());
  for (uint32_t B = 0; B < Benchmarks.size(); ++B)
    for (uint32_t I = 0; I < Benchmarks[B].Inputs.size(); ++I)
      for (uint32_t C = 0; C < Configs.size(); ++C) {
        CellResult Cell;
        Cell.Coord = {B, I, C};
        Cell.Benchmark = Benchmarks[B].Spec.Name;
        Cell.Input = Benchmarks[B].Inputs[I].Name;
        Cell.Config = Configs[C].Name;
        Cell.Seed = ExperimentPlan::cellSeed(Plan.baseSeed(), Cell.Coord);
        Cells.push_back(std::move(Cell));
      }
  return Cells;
}

} // namespace

size_t RunReport::failedCells() const {
  size_t N = 0;
  for (const CellResult &Cell : Cells)
    N += Cell.Failed;
  return N;
}

uint64_t RunReport::totalEvents() const {
  uint64_t N = 0;
  for (const CellResult &Cell : Cells)
    N += Cell.Events;
  return N;
}

const CellResult &RunReport::cell(uint32_t Benchmark, uint32_t Input,
                                  uint32_t Config) const {
  const CellCoord Want{Benchmark, Input, Config};
  for (const CellResult &Cell : Cells)
    if (Cell.Coord == Want)
      return Cell;
  throw std::out_of_range("RunReport::cell: no cell at (" +
                          std::to_string(Benchmark) + ", " +
                          std::to_string(Input) + ", " +
                          std::to_string(Config) + ")");
}

const CellResult *RunReport::find(const std::string &Benchmark,
                                  const std::string &Input,
                                  const std::string &Config) const {
  for (const CellResult &Cell : Cells)
    if (Cell.Benchmark == Benchmark && Cell.Input == Input &&
        Cell.Config == Config)
      return &Cell;
  return nullptr;
}

RunReport engine::runPlan(const ExperimentPlan &Plan,
                          const RunOptions &Options) {
  RunReport Report;
  // Lay out every cell slot up front in stable benchmark-major order; each
  // task then writes only its own slot.
  Report.Cells = layoutPlanCells(Plan);
  // No more workers than cells: a spare one would only start and idle.
  Report.Jobs = static_cast<unsigned>(
      std::min<size_t>(ThreadPool::resolveJobs(Options.Jobs),
                       std::max<size_t>(Report.Cells.size(), 1)));

  const Clock::time_point RunStart = Clock::now();
  if (Report.Jobs == 1) {
    for (CellResult &Cell : Report.Cells)
      runPlanCell(Plan, Cell);
  } else {
    // Each group starts with its first cell and releases the rest when
    // that cell ends.  With an arena a group is one (benchmark, input)
    // key, whose cells are contiguous with config column 0 first: the
    // first cell materializes the trace, so no sibling blocks on it, and
    // keys go longest first.  Without one every cell is its own group,
    // in report order.
    std::vector<std::span<CellResult>> Groups;
    const size_t GroupSize = Plan.traceArena() ? Plan.configs().size() : 1;
    for (size_t I = 0; I < Report.Cells.size(); I += GroupSize)
      Groups.push_back(std::span(Report.Cells).subspan(I, GroupSize));
    const auto Events = [&Plan](std::span<CellResult> Group) {
      const CellCoord &C = Group.front().Coord;
      return Plan.benchmarks()[C.Benchmark].Inputs[C.Input].Events;
    };
    if (Plan.traceArena())
      std::stable_sort(Groups.begin(), Groups.end(), [&Events](auto A, auto B) {
        return Events(A) > Events(B);
      });
    ThreadPool Pool(Report.Jobs);
    for (const std::span<CellResult> Group : Groups)
      submitCell(Pool, Plan, Group.front(), [&Pool, &Plan, Group] {
        for (CellResult &Sibling : Group.subspan(1))
          submitCell(Pool, Plan, Sibling);
      });
    Pool.wait();
  }
  Report.WallSeconds = secondsSince(RunStart, Clock::now());
  return Report;
}
