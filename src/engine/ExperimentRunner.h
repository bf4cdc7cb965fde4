//===- engine/ExperimentRunner.h - Parallel plan execution ------*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes an ExperimentPlan over a fixed-size thread pool.  runPlan is
/// the one way a multi-run experiment executes; core::runTrace is the
/// single-run primitive it calls per cell, in batches, over the plan's
/// trace arena when the plan carries one.
///
/// Guarantees:
///  * Determinism -- every cell builds its own event source and
///    controller (or runs its own task) from the plan (no shared mutable
///    state), and cell seeds are pure functions of grid coordinates, so a
///    parallel run's results are bit-identical to a serial run's.
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
  /// Worker threads; 0 = std::thread::hardware_concurrency.  Jobs == 1
  /// runs the cells inline on the calling thread (the serial reference).
  unsigned Jobs = 0;
};

/// The outcome of one grid cell.
struct CellResult {
  CellCoord Coord;
  std::string Benchmark; ///< workload name
  std::string Input;     ///< input name ("ref"/"train"/...)
  std::string Config;    ///< controller-config name
  uint64_t Seed = 0;     ///< the cell's deterministic seed

  /// Final controller statistics (copied out of the cell's controller).
  core::ControlStats Stats;
  /// A task cell's return value (addTaskConfig columns, e.g. a collected
  /// profile); empty for controller cells.  Recover with std::any_cast<T>.
  std::any Value;

  bool Failed = false; ///< an exception escaped the cell
  std::string Error;   ///< its message (Failed only)

  // ---- Timing / throughput ----------------------------------------------
  uint64_t Events = 0;      ///< trace events consumed by the cell
  double WallSeconds = 0.0; ///< cell execution wall time
  /// Ready -> start latency: a cell is ready when the run starts, or for
  /// an arena key's later cells, when the key's first cell ends.
  double QueueWaitSeconds = 0.0;

  double eventsPerSecond() const {
    return WallSeconds > 0.0 ? static_cast<double>(Events) / WallSeconds
                             : 0.0;
  }
};

/// The full run report: one slot per cell, in stable grid order.
struct RunReport {
  std::vector<CellResult> Cells;
  unsigned Jobs = 1;        ///< workers actually used
  double WallSeconds = 0.0; ///< whole-run wall time

  size_t failedCells() const;
  uint64_t totalEvents() const;
  /// Aggregate throughput: total events / run wall time.
  double eventsPerSecond() const {
    return WallSeconds > 0.0 ? static_cast<double>(totalEvents()) /
                                   WallSeconds
                             : 0.0;
  }

  /// The cell at grid coordinates; throws std::out_of_range when absent.
  const CellResult &cell(uint32_t Benchmark, uint32_t Input,
                         uint32_t Config) const;
  /// Lookup by names; nullptr when absent.
  const CellResult *find(const std::string &Benchmark,
                         const std::string &Input,
                         const std::string &Config) const;
};

/// Runs every cell of \p Plan and returns the report.  The plan must
/// outlive the call (cell contexts reference it).
RunReport runPlan(const ExperimentPlan &Plan, const RunOptions &Options = {});

} // namespace engine
} // namespace specctrl

#endif // SPECCTRL_ENGINE_EXPERIMENTRUNNER_H
