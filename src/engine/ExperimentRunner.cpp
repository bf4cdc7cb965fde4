//===- engine/ExperimentRunner.cpp - Parallel plan execution --------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "engine/ExperimentRunner.h"

#include "core/Driver.h"
#include "workload/TraceArena.h"
#include "workload/TraceGenerator.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <span>
#include <stdexcept>
#include <thread>
#include <tuple>

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

    const CellContext Ctx{Bench.Spec, Input, Cell.Coord, Plan.baseSeed()};
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
    Cell.Stats = core::runTrace(*Controller, *Source);
  } catch (const std::exception &E) {
    Cell.Failed = true;
    Cell.Error = E.what();
  } catch (...) {
    Cell.Failed = true;
    Cell.Error = "unknown exception";
  }
  Cell.WallSeconds = secondsSince(Start, Clock::now());
}

/// The run-local work queue.  A group is the run of cells that share one
/// trace: with an arena, one (benchmark, input) key's cells, contiguous
/// with config column 0 first; without one, a single cell.  take() starts
/// groups longest first with an arena (report order without), each with
/// its first cell; when that cell ends, failed or not, the group's other
/// cells are queued, and take() hands them out before it starts another
/// group.  So a group's first cell materializes its trace and no sibling
/// blocks on it, and at most one group per worker is in flight.
class CellQueue {
public:
  CellQueue(const ExperimentPlan &Plan, std::vector<CellResult> &Cells)
      : Plan(Plan), Cells(Cells),
        GroupSize(Plan.traceArena() ? Plan.configs().size() : 1),
        Ready(Clock::now()), Left(Cells.size()) {
    for (size_t I = 0; I < Cells.size(); I += GroupSize)
      Groups.push_back(std::span(Cells).subspan(I, GroupSize));
    if (Plan.traceArena())
      std::stable_sort(Groups.begin(), Groups.end(), [this](auto A, auto B) {
        return events(A) > events(B);
      });
    Unfinished.assign(Groups.size(), GroupSize);
  }

  /// The next cell to run, its queue wait set; null once every cell has
  /// been handed out.  Blocks while nothing is queued and no group is left
  /// to start, but a first cell still runs.
  CellResult *take() {
    std::unique_lock<std::mutex> Lock(Mutex);
    Released.wait(Lock, [this] {
      return !Siblings.empty() || NextGroup < Groups.size() || Left == 0;
    });
    if (Left == 0)
      return nullptr;
    CellResult *Cell;
    Clock::time_point Since = Ready;
    if (Siblings.empty()) {
      Cell = &Groups[NextGroup++].front();
    } else {
      std::tie(Cell, Since) = Siblings.front();
      Siblings.pop_front();
    }
    --Left;
    Cell->QueueWaitSeconds = secondsSince(Since, Clock::now());
    return Cell;
  }

  /// Records that \p Cell ended: queues its group's other cells when it
  /// was the first, and releases the group's trace from the arena when it
  /// was the last.  The worker calls this before it takes its next cell,
  /// which is what bounds the groups in flight by the workers.
  void finish(CellResult &Cell) {
    const size_t I = static_cast<size_t>(&Cell - Cells.data());
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (I % GroupSize == 0) {
        const Clock::time_point Now = Clock::now();
        for (size_t S = I + 1; S < I + GroupSize; ++S)
          Siblings.emplace_back(&Cells[S], Now);
        Released.notify_all();
      }
      if (--Unfinished[I / GroupSize] != 0 || !Plan.traceArena())
        return;
    }
    const BenchmarkAxis &Bench = Plan.benchmarks()[Cell.Coord.Benchmark];
    Plan.traceArena()->release(Bench.Spec, Bench.Inputs[Cell.Coord.Input]);
  }

private:
  uint64_t events(std::span<CellResult> Group) const {
    const CellCoord &C = Group.front().Coord;
    return Plan.benchmarks()[C.Benchmark].Inputs[C.Input].Events;
  }

  const ExperimentPlan &Plan;
  std::vector<CellResult> &Cells;
  const size_t GroupSize;
  const Clock::time_point Ready; ///< the run's start: first cells are ready
  std::vector<std::span<CellResult>> Groups; ///< in the order they start

  std::mutex Mutex;
  std::condition_variable Released;
  /// Cells whose first cell ended, each with that moment.
  std::deque<std::pair<CellResult *, Clock::time_point>> Siblings;
  std::vector<size_t> Unfinished; ///< per group, in report order
  size_t NextGroup = 0;           ///< into Groups
  size_t Left;                    ///< cells not yet handed out
};

/// One CellResult slot per plan cell in the stable benchmark-major report
/// order (benchmark, then input, then config), with names filled in and
/// all run fields zeroed.
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

RunReport engine::runPlan(const ExperimentPlan &Plan,
                          const RunOptions &Options) {
  RunReport Report;
  // Lay out every cell slot up front in stable benchmark-major order; each
  // cell then writes only its own slot.
  Report.Cells = layoutPlanCells(Plan);
  // Jobs 0 is the hardware concurrency, at least one; and no more workers
  // than cells: a spare one would only start and idle.
  const unsigned Requested =
      Options.Jobs != 0 ? Options.Jobs
                        : std::max(1u, std::thread::hardware_concurrency());
  Report.Jobs = static_cast<unsigned>(std::min<size_t>(
      Requested, std::max<size_t>(Report.Cells.size(), 1)));

  const Clock::time_point RunStart = Clock::now();
  CellQueue Queue(Plan, Report.Cells);
  const auto Work = [&Plan, &Queue] {
    while (CellResult *Cell = Queue.take()) {
      runPlanCell(Plan, *Cell);
      Queue.finish(*Cell);
    }
  };
  {
    // The calling thread runs one loop, so a serial run starts no thread;
    // the others join when the block ends, after the queue has run dry.
    std::vector<std::jthread> Workers;
    for (unsigned W = 1; W < Report.Jobs; ++W)
      Workers.emplace_back(Work);
    Work();
  }
  Report.WallSeconds = secondsSince(RunStart, Clock::now());
  return Report;
}
