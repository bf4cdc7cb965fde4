//===- bench/BenchCommon.h - Shared bench-harness plumbing ------*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing for the per-table/per-figure bench binaries: standard
/// command-line options (output format, run-length scaling, benchmark
/// selection, parallelism), suite construction, experiment-plan helpers,
/// and the profile-collection passes that several experiments share.
///
/// Multi-run benches should describe their grid as an
/// engine::ExperimentPlan (see suitePlan) and execute it with runSuite
/// rather than hand-rolling nested benchmark/config loops; the engine
/// parallelizes cells across --jobs workers with results bit-identical to
/// a serial run.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_BENCH_BENCHCOMMON_H
#define SPECCTRL_BENCH_BENCHCOMMON_H

#include "core/ReactiveConfig.h"
#include "engine/ExperimentRunner.h"
#include "profile/BranchProfile.h"
#include "support/Options.h"
#include "support/RunConfig.h"
#include "workload/ProgramSynthesizer.h"
#include "workload/SpecSuite.h"
#include "workload/TraceArena.h"
#include "workload/TraceGenerator.h"

#include <memory>
#include <string>
#include <vector>

namespace specctrl {
namespace bench {

/// Options every bench binary accepts.
struct SuiteOptions {
  workload::SuiteScale Scale;
  bool Csv = false;
  /// Benchmarks to run; empty = the full twelve.
  std::vector<std::string> Benchmarks;
  /// Worker threads for engine-backed benches (0 = hardware concurrency).
  unsigned Jobs = 0;
  /// Base seed mixed into every experiment cell's seed.
  uint64_t Seed = 0;
  /// Share one trace materialization across sweep cells (the default;
  /// --no-trace-arena regenerates per cell instead).
  bool UseTraceArena = true;
  /// Disk tier for the arena (--trace-cache-dir); empty = memory only.
  std::string TraceCacheDir;
};

/// Registers the workload-scaling options (--events-per-billion,
/// --site-scale) shared with the inspection tools.
void addScaleOptions(OptionSet &Opts);

/// Reads the scale options back.
workload::SuiteScale readScale(const OptionSet &Opts);

/// Registers the standard bench options (includes addScaleOptions).
void addStandardOptions(OptionSet &Opts);

/// Table 2's configuration with the optimization latency rescaled to the
/// harness's compressed run lengths (the paper's 1,000,000 instructions is
/// negligible against billion-instruction sites but would dominate our
/// ~1/300-length runs; --opt-latency overrides, and the fig5/fig8 latency
/// sweeps restore the paper's values explicitly).
core::ReactiveConfig scaledBaseline(const OptionSet &Opts);

/// Reads the standard options back.  A value no run can honor (a
/// negative --jobs) prints an `error:` line and exits with status 1, like
/// the option parser's own errors.
SuiteOptions readSuiteOptions(const OptionSet &Opts);

/// Builds the selected benchmarks (all twelve by default).
std::vector<workload::WorkloadSpec> selectedSuite(const SuiteOptions &Opt);

/// The selected calibration profiles (for benches that work from profiles
/// rather than workload specs).
std::vector<workload::BenchmarkProfile>
selectedProfiles(const SuiteOptions &Opt);

/// The suite's trace arena under the standard options: a fresh arena
/// (with the --trace-cache-dir disk tier when set), or null under
/// --no-trace-arena.  suitePlan installs it automatically; hand-rolled
/// benches pass it to runBenchWorkload.
std::shared_ptr<workload::TraceArena> makeArena(const SuiteOptions &Opt);

/// Runs (Spec, Input) under \p Controller through \p Arena when non-null
/// (materialize-once replay), else via direct generation.  Bit-identical
/// results either way -- the single-run analogue of the plan arena.
const core::ControlStats &
runBenchWorkload(core::SpeculationController &Controller,
                 const workload::WorkloadSpec &Spec,
                 const workload::InputConfig &Input,
                 workload::TraceArena *Arena);

/// Starts an experiment plan over the selected suite: one benchmark axis
/// per selected workload (reference input), base seed from --seed, and --
/// unless --no-trace-arena -- a per-plan trace arena so every config
/// column replays one shared materialization per benchmark.  The bench
/// adds its controller configs and runs it with runSuite.
engine::ExperimentPlan suitePlan(const SuiteOptions &Opt);

/// Executes \p Plan with --jobs workers.
engine::RunReport runSuite(const engine::ExperimentPlan &Plan,
                           const SuiteOptions &Opt);

/// Starts an MSSP experiment plan: one benchmark axis per selected
/// calibration profile (reference input), base seed from --seed.  The
/// bench adds task columns with addTaskConfig whose runners recover their
/// profile via msspCellProfile / synthesize via msspSynthSpec, and
/// executes the grid with runSuite.
engine::ExperimentPlan msspSuitePlan(const SuiteOptions &Opt);

/// The calibration profile of an MSSP plan cell (matched by benchmark
/// name).
const workload::BenchmarkProfile &
msspCellProfile(const engine::CellContext &Ctx);

/// The cell's synthesis spec.  Deterministic per benchmark by default so
/// the reference outputs stay bit-identical; a nonzero --seed perturbs
/// the synthesis per cell (Spec.Seed ^= cell seed).
workload::SynthSpec msspSynthSpec(const engine::CellContext &Ctx,
                                  uint64_t Iterations);

/// Prints any failed cells to stderr.  Returns true when every cell
/// succeeded (bench mains typically `return checkReport(R) ? 0 : 1`
/// after printing).
bool checkReport(const engine::RunReport &Report);

/// One full run collecting whole-run per-site outcome counts.
profile::BranchProfile collectProfile(const workload::WorkloadSpec &Spec,
                                      const workload::InputConfig &Input);

/// Prints the standard bench banner ("# <name>: <paper artifact>").
void printBanner(const std::string &Title, const std::string &Detail);

} // namespace bench
} // namespace specctrl

#endif // SPECCTRL_BENCH_BENCHCOMMON_H
