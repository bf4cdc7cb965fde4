//===- engine/Experiment.h - Declarative experiment plans -------*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The declarative multi-run experiment description executed by
/// engine::runPlan.  A plan is a grid of benchmark x input x
/// controller-config cells -- exactly the shape of the paper's sensitivity
/// methodology (Sec. 3, Tables 3-4), where every cell is an independent
/// full-trace run.  Each cell names a *factory* for its
/// SpeculationController (and optionally one for a TraceObserver), so the
/// runner can construct all per-cell state inside the cell itself: no
/// mutable state is shared between cells, which is what makes parallel
/// execution bit-identical to serial.
///
/// Cells receive a deterministic seed derived purely from the plan's base
/// seed and the cell's grid coordinates (never from shared generator
/// state), for factories that want per-cell randomness.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_ENGINE_EXPERIMENT_H
#define SPECCTRL_ENGINE_EXPERIMENT_H

#include "core/Controller.h"
#include "core/Driver.h"
#include "workload/Workload.h"

#include <any>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace specctrl {
namespace workload {
class TraceArena;
} // namespace workload
namespace engine {

/// Grid coordinates of one cell (indices into the plan's axes).
struct CellCoord {
  uint32_t Benchmark = 0;
  uint32_t Input = 0;
  uint32_t Config = 0;

  bool operator==(const CellCoord &) const = default;
};

/// Everything a cell factory may want to know about its cell.  References
/// point into the plan, which must outlive the run.
struct CellContext {
  const workload::WorkloadSpec &Spec;
  const workload::InputConfig &Input;
  const std::string &ConfigName;
  CellCoord Coord;
  /// Deterministic per-cell seed: mix(plan base seed, coordinates).
  uint64_t Seed = 0;
  /// The plan's base seed, so cells can distinguish "default run" (0,
  /// reproduce the reference output bit-exactly) from an explicitly
  /// perturbed run.
  uint64_t BaseSeed = 0;
};

/// Builds the cell's controller.  Must not touch state shared with other
/// cells; derive any randomness from Ctx.Seed.
using ControllerFactory =
    std::function<std::unique_ptr<core::SpeculationController>(
        const CellContext &Ctx)>;

/// Builds the cell's optional trace observer (profile collection etc.).
/// Returning nullptr means "no observer for this cell".
using ObserverFactory = std::function<std::unique_ptr<core::TraceObserver>(
    const CellContext &Ctx)>;

/// Runs an arbitrary self-contained computation for one cell and returns
/// its result (recovered by the caller with std::any_cast on
/// CellResult::Value).  Used by experiments whose unit of work is not a
/// branch-trace run -- e.g. the MSSP timing simulations, where a cell
/// synthesizes and executes a whole SimIR program.  The same isolation
/// rule applies: no state shared with other cells, randomness only from
/// Ctx.Seed.
using CellRunner = std::function<std::any(const CellContext &Ctx)>;

/// One benchmark axis entry: a workload and the inputs to run it under.
struct BenchmarkAxis {
  workload::WorkloadSpec Spec;
  std::vector<workload::InputConfig> Inputs;
};

/// One config axis entry: either a controller column (Make set; the
/// runner drives the benchmark's trace through the controller) or a task
/// column (Run set; the runner just invokes it).  Exactly one is set.
struct ConfigAxis {
  std::string Name;
  ControllerFactory Make;
  CellRunner Run;
};

/// A declarative grid of independent runs.
class ExperimentPlan {
public:
  /// Adds a benchmark run under its reference input.
  BenchmarkAxis &addBenchmark(workload::WorkloadSpec Spec);

  /// Adds a benchmark run under explicit inputs.
  BenchmarkAxis &addBenchmark(workload::WorkloadSpec Spec,
                              std::vector<workload::InputConfig> Inputs);

  /// Adds a controller configuration (one grid column).
  void addConfig(std::string Name, ControllerFactory Make);

  /// Adds a task configuration: a grid column whose cells run \p Run
  /// instead of the trace-driven controller path.  Its return value lands
  /// in CellResult::Value.
  void addTaskConfig(std::string Name, CellRunner Run);

  /// Installs the per-cell observer factory (applies to every cell; return
  /// nullptr from the factory to skip individual cells).
  void setObserverFactory(ObserverFactory Make) {
    MakeObserver = std::move(Make);
  }

  /// Base seed mixed into every cell seed (default 0).
  void setBaseSeed(uint64_t Seed) { BaseSeed = Seed; }

  /// Installs the plan's trace arena: every controller cell then replays
  /// its (benchmark, input) trace out of one shared materialization
  /// instead of re-synthesizing it (identical stream, so identical
  /// results; see workload::TraceArena).  Null (the default) re-generates
  /// per cell.  Shared_ptr so one arena -- and its disk tier -- can back
  /// several plans.
  void setTraceArena(std::shared_ptr<workload::TraceArena> Arena) {
    this->Arena = std::move(Arena);
  }

  const std::vector<BenchmarkAxis> &benchmarks() const { return Benchmarks; }
  const std::vector<ConfigAxis> &configs() const { return Configs; }
  const ObserverFactory &observerFactory() const { return MakeObserver; }
  uint64_t baseSeed() const { return BaseSeed; }
  const std::shared_ptr<workload::TraceArena> &traceArena() const {
    return Arena;
  }

  /// Total number of grid cells.
  size_t numCells() const;

  /// The deterministic seed of the cell at \p Coord under \p BaseSeed.
  /// Pure function of its arguments -- independent of execution order.
  static uint64_t cellSeed(uint64_t BaseSeed, const CellCoord &Coord);

private:
  std::vector<BenchmarkAxis> Benchmarks;
  std::vector<ConfigAxis> Configs;
  ObserverFactory MakeObserver;
  std::shared_ptr<workload::TraceArena> Arena;
  uint64_t BaseSeed = 0;
};

} // namespace engine
} // namespace specctrl

#endif // SPECCTRL_ENGINE_EXPERIMENT_H
