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
///  * Determinism -- every cell builds its own generator, controller, and
///    observer from the plan (no shared mutable state), and cell seeds are
///    pure functions of grid coordinates, so a parallel run's results are
///    bit-identical to a serial run's.
///  * Failure isolation -- an exception escaping one cell is captured into
///    that cell's report slot (Failed/Error); sibling cells complete
///    normally and the run returns a full report.
///  * Stable report order -- cells appear benchmark-major (benchmark,
///    then input, then config) regardless of completion order.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_ENGINE_EXPERIMENTRUNNER_H
#define SPECCTRL_ENGINE_EXPERIMENTRUNNER_H

#include "engine/Experiment.h"

#include <any>
#include <memory>
#include <string>
#include <vector>

namespace specctrl {
namespace engine {

/// Execution options for a plan run.
struct RunOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency.  Jobs == 1
  /// runs the cells inline on the calling thread (the serial reference).
  unsigned Jobs = 0;
  /// Events per driver chunk inside each cell (see core::runTrace);
  /// results are identical at any value.
  size_t BatchEvents = workload::DefaultBatchEvents;
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
  /// The cell's observer, if the plan's factory produced one; callers
  /// downcast to recover collected per-cell data (e.g. profiles).
  std::unique_ptr<core::TraceObserver> Observer;
  /// A task cell's return value (addTaskConfig columns); empty for
  /// controller cells.  Recover with std::any_cast<T>.
  std::any Value;

  bool Failed = false; ///< an exception escaped the cell
  std::string Error;   ///< its message (Failed only)

  // ---- Timing / throughput ----------------------------------------------
  uint64_t Events = 0;          ///< trace events consumed by the cell
  uint64_t Batches = 0;         ///< driver chunks dispatched by the cell
  double WallSeconds = 0.0;     ///< cell execution wall time
  double QueueWaitSeconds = 0.0; ///< submit -> start latency

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

  /// The cell at grid coordinates (asserts it exists).
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
