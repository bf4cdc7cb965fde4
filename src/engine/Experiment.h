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
/// full-trace run.  Each column names a *factory* for its cells'
/// SpeculationController, or a task that is the whole cell (a profile
/// collection, an MSSP simulation), so the runner constructs all per-cell
/// state inside the cell itself: no mutable state is shared between
/// cells, which is what makes parallel execution bit-identical to serial.
///
/// The engine derives no randomness.  A workload carries its own seed
/// (WorkloadSpec::Seed, InputConfig::Seed), so every cell of a benchmark
/// reads the same stream; the plan's base seed is passed to every cell
/// unchanged, for a task that perturbs what it builds (the MSSP benches
/// seed their synthesized programs from it).
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_ENGINE_EXPERIMENT_H
#define SPECCTRL_ENGINE_EXPERIMENT_H

#include "core/Controller.h"
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
  CellCoord Coord;
  /// The plan's base seed, the same in every cell, so a task can tell the
  /// default run (0, the reference output bit-exactly) from an explicitly
  /// perturbed one.
  uint64_t BaseSeed = 0;
};

/// Builds the cell's controller.  Must not touch state shared with other
/// cells.
using ControllerFactory =
    std::function<std::unique_ptr<core::SpeculationController>(
        const CellContext &Ctx)>;

/// Runs an arbitrary self-contained computation for one cell and returns
/// its result (recovered by the caller with std::any_cast on
/// CellResult::Value).  Used by experiments whose unit of work is not a
/// controller run over a branch trace -- e.g. a whole-run profile
/// collection, or the MSSP timing simulations, where a cell synthesizes
/// and executes a whole SimIR program.  The same isolation rule applies:
/// no state shared with other cells (the plan's trace arena aside, which
/// is synchronized), and randomness only from the cell's workload and
/// Ctx.BaseSeed.
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

  /// The base seed every cell's context carries (default 0).
  void setBaseSeed(uint64_t Seed) { BaseSeed = Seed; }

  /// Installs the plan's trace arena: every controller cell then replays
  /// its (benchmark, input) trace out of one shared materialization
  /// instead of re-synthesizing it (identical stream, so identical
  /// results; see workload::TraceArena).  Task cells that read the trace
  /// open it here too.  Null (the default) re-generates per cell.
  /// runPlan releases each key's trace when the key's last cell ends, so
  /// a second plan on the same arena materializes it again.
  void setTraceArena(std::shared_ptr<workload::TraceArena> Arena) {
    this->Arena = std::move(Arena);
  }

  const std::vector<BenchmarkAxis> &benchmarks() const { return Benchmarks; }
  const std::vector<ConfigAxis> &configs() const { return Configs; }
  uint64_t baseSeed() const { return BaseSeed; }
  const std::shared_ptr<workload::TraceArena> &traceArena() const {
    return Arena;
  }

  /// Total number of grid cells.
  size_t numCells() const;

private:
  std::vector<BenchmarkAxis> Benchmarks;
  std::vector<ConfigAxis> Configs;
  std::shared_ptr<workload::TraceArena> Arena;
  uint64_t BaseSeed = 0;
};

} // namespace engine
} // namespace specctrl

#endif // SPECCTRL_ENGINE_EXPERIMENT_H
