//===- engine/ExperimentRunner.h - Parallel plan execution ------*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes an ExperimentPlan on RunOptions::Jobs worker loops, each
/// taking cells from one run-local queue until none is left.  runPlan is
/// the one way a multi-run experiment executes; core::runTrace is the
/// single-run primitive it calls per cell, in batches, over the plan's
/// trace arena when the plan carries one.
///
/// Guarantees:
///  * Determinism -- a parallel run's results are bit-identical to a
///    serial run's: cells share no mutable state (each builds its own
///    event source and controller, or runs its own task, from the plan;
///    the trace arena is synchronized and replays the stream a generator
///    would give), report slots are laid out before the run, and every
///    workload carries its own seeds, so no result depends on which
///    worker ran a cell or when.
///  * Failure isolation -- an exception escaping one cell is captured into
///    that cell's report slot (Failed/Error); sibling cells complete
///    normally and the run returns a full report.
///  * Stable report order -- cells appear benchmark-major (benchmark,
///    then input, then config) regardless of completion order.
///  * No cell waits on a trace -- with a trace arena, each (benchmark,
///    input) key's cell in config column 0 runs first, keys longest first
///    (by InputConfig::Events); when it ends, failed or not, it releases
///    the key's other cells, which then replay the trace it materialized.
///    Task and controller columns follow the same rule.  Arena-less plans
///    run in report order.
///  * Bounded residency -- workers take a released cell before they start
///    a new key, and the worker that ends a key's last cell calls
///    TraceArena::release on it before taking another cell.  So at most
///    Jobs keys are in flight, and a serial run holds one at a time.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_ENGINE_EXPERIMENTRUNNER_H
#define SPECCTRL_ENGINE_EXPERIMENTRUNNER_H

#include "engine/Experiment.h"

#include <any>
#include <string>
#include <vector>

namespace specctrl {
namespace engine {

/// Execution options for a plan run.
struct RunOptions {
  /// Worker loops; 0 = std::thread::hardware_concurrency, at least one.
  /// The calling thread runs one of them, so Jobs == 1 starts no thread
  /// (the serial reference).
  unsigned Jobs = 0;
};

/// The outcome of one grid cell.
struct CellResult {
  CellCoord Coord;
  std::string Benchmark; ///< workload name
  std::string Input;     ///< input name ("ref"/"train"/...)
  std::string Config;    ///< controller-config name

  /// Final controller statistics (copied out of the cell's controller).
  core::ControlStats Stats;
  /// A task cell's return value (addTaskConfig columns, e.g. a collected
  /// profile); empty for controller cells.  Recover with std::any_cast<T>.
  std::any Value;

  bool Failed = false; ///< an exception escaped the cell
  std::string Error;   ///< its message (Failed only)

  double WallSeconds = 0.0; ///< cell execution wall time
  /// Ready -> start latency: a cell is ready when the run starts, or for
  /// an arena key's later cells, when the key's first cell ends.
  double QueueWaitSeconds = 0.0;
};

/// The full run report: one slot per cell, in stable grid order.
struct RunReport {
  std::vector<CellResult> Cells;
  unsigned Jobs = 1;        ///< workers actually used
  double WallSeconds = 0.0; ///< whole-run wall time

  size_t failedCells() const;

  /// The cell at grid coordinates; throws std::out_of_range when absent.
  const CellResult &cell(uint32_t Benchmark, uint32_t Input,
                         uint32_t Config) const;
};

/// Runs every cell of \p Plan and returns the report.  The plan must
/// outlive the call (cell contexts reference it).
RunReport runPlan(const ExperimentPlan &Plan, const RunOptions &Options = {});

} // namespace engine
} // namespace specctrl

#endif // SPECCTRL_ENGINE_EXPERIMENTRUNNER_H
