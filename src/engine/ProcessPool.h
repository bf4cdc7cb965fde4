//===- engine/ProcessPool.h - Multi-process plan execution ------*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes an ExperimentPlan across forked worker processes instead of
/// threads.  At SPEC run lengths a sweep cell is minutes of pure decode +
/// controller work; processes sidestep any shared-allocator contention and
/// -- through the trace arena's mapped disk tier (workload/TraceArena.h)
/// -- replay one kernel page-cache copy of each materialized trace, so N
/// workers cost one trace's worth of physical memory, not N.
///
/// Work distribution is a work-stealing shared index: a file containing
/// the next unclaimed cell number, advanced under an exclusive flock.
/// Workers loop { lock, claim next cell, unlock, run it } until the index
/// passes the grid size, so a slow cell never strands the cells behind it
/// on one worker (dynamic load balance, same as the thread pool's FIFO
/// queue).  Each finished cell is serialized into its own fragment file
/// (framed + checksummed, core/Snapshot.h plumbing) and published
/// atomically via rename; the parent reaps the workers and merges
/// fragments back into a RunReport in the stable benchmark-major order.
///
/// Guarantees:
///  * Determinism -- cells run through the same engine::runPlanCell as the
///    serial and threaded executors, and fragments are merged in grid
///    order, so the report's Stats/Events are bit-identical to a serial
///    run regardless of worker count or claim interleaving.
///  * Failure isolation -- a cell that throws is recorded Failed in its
///    fragment; a worker that dies outright (signal, _exit) loses only the
///    cells it claimed, which the parent reports Failed with a
///    worker-death diagnostic.  Sibling cells are unaffected.
///
/// Restrictions: plans whose results cannot cross a process boundary are
/// rejected with std::invalid_argument -- task configs (std::any Value)
/// and observer factories (live TraceObserver pointers).  Sweep plans
/// (controller columns only) are exactly the shape this executor exists
/// for.
///
/// Fork safety: runPlanProcesses must be called while the process is
/// single-threaded (no live ThreadPool); children run cells and _exit
/// without touching the C++ runtime's atexit chain.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_ENGINE_PROCESSPOOL_H
#define SPECCTRL_ENGINE_PROCESSPOOL_H

#include "engine/ExperimentRunner.h"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace specctrl {
namespace engine {

/// Execution options for a multi-process plan run.
struct ProcessRunOptions {
  /// Worker processes; 0 = std::thread::hardware_concurrency (floor 1).
  unsigned Procs = 0;
  /// Events per driver chunk inside each cell (see core::runTrace).
  size_t BatchEvents = workload::DefaultBatchEvents;
  /// Scratch directory for the shared index and cell fragments; empty
  /// creates (and removes) a fresh directory under TMPDIR.  The caller
  /// owns a non-empty directory's lifetime; the pool only adds files.
  std::string WorkDir;
};

/// Runs every cell of \p Plan across forked workers and returns the
/// report (cells in stable grid order, Stats bit-identical to a serial
/// run).  Throws std::invalid_argument for plans with task configs or an
/// observer factory, std::runtime_error on scratch-dir/fork failures.
RunReport runPlanProcesses(const ExperimentPlan &Plan,
                           const ProcessRunOptions &Options = {});

/// Serializes a finished cell into a framed + checksummed fragment blob
/// (everything except Observer/Value, which cannot cross the boundary).
std::vector<uint8_t> encodeCellFragment(const CellResult &Cell);

/// Decodes encodeCellFragment output.  Returns false with \p Error set on
/// any corruption/truncation; never throws, never reads past the input.
bool decodeCellFragment(std::span<const uint8_t> Bytes, CellResult &Cell,
                        std::string &Error);

} // namespace engine
} // namespace specctrl

#endif // SPECCTRL_ENGINE_PROCESSPOOL_H
