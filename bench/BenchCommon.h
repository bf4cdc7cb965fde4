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
/// The standard options come in groups, one per reader; a bench registers
/// only the groups it reads, so its --help lists nothing it ignores and
/// an option it cannot honor is rejected as unknown.
///
/// Every suite bench describes its grid as an engine::ExperimentPlan (see
/// suitePlan) and executes it with runSuite; the engine parallelizes cells
/// across --jobs workers with results bit-identical to a serial run.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_BENCH_BENCHCOMMON_H
#define SPECCTRL_BENCH_BENCHCOMMON_H

#include "core/ReactiveConfig.h"
#include "engine/ExperimentRunner.h"
#include "profile/BranchProfile.h"
#include "support/Options.h"
#include "workload/ProgramSynthesizer.h"
#include "workload/SpecSuite.h"
#include "workload/TraceGenerator.h"

#include <memory>
#include <string>
#include <vector>

namespace specctrl {
namespace bench {

/// The standard options a bench registered, read back.  Fields of groups
/// it did not register keep their defaults.
struct SuiteOptions {
  workload::SuiteScale Scale;
  bool Csv = false;
  /// Benchmarks to run; empty = the full twelve.
  std::vector<std::string> Benchmarks;
  /// Worker threads for runSuite (0 = hardware concurrency).
  unsigned Jobs = 0;
  /// Base seed mixed into every selected workload's seed (seedWorkload)
  /// and every MSSP program's (msspSynthSpec); 0 is the reference run.
  uint64_t Seed = 0;
};

/// --csv: every report binary.
void addCsvOption(OptionSet &Opts);

/// The workload-scaling options (--events-per-billion, --site-scale):
/// binaries that build workloads, and the inspection tools.
void addScaleOptions(OptionSet &Opts);

/// Reads the scale options back.  A scale SuiteScale::validate rejects (a
/// factor that is not a finite number > 0, or one whose derived counts
/// overflow) prints an `error:` line and exits with status 2, the
/// usage-error code.
workload::SuiteScale readScale(const OptionSet &Opts);

/// The checked readers of a bench's own numeric options.  A value the
/// option's rule rejects prints `error: --NAME ...` and exits with status
/// 2, like readScale.
///
/// readCount reads integer option \p Name, which must be >= \p Min
/// (--iterations, --block, --tracks, --flush-interval and --pump-events
/// take Min 1; --opt-latency, --wait-period and --seed take 0).
uint64_t readCount(const OptionSet &Opts, const char *Name, int64_t Min);

/// readThreshold reads double option \p Name as a selection bias
/// threshold, which must obey ReactiveConfig::validate's rule for
/// SelectThreshold: finite and in (0.5, 1].
double readThreshold(const OptionSet &Opts, const char *Name);

/// --benchmarks: binaries that select suite members.  The MSSP benches
/// register it alone, since they synthesize programs from the selected
/// profiles and never generate a scaled trace.
void addBenchmarksOption(OptionSet &Opts);

/// --benchmarks plus the scale options: binaries that build the scaled
/// suite (selectedSuite, suitePlan).
void addSuiteOptions(OptionSet &Opts);

/// --opt-latency and --wait-period: callers of scaledBaseline.
void addBaselineOptions(OptionSet &Opts);

/// --jobs and --seed: callers of runSuite.
void addJobsOptions(OptionSet &Opts);

/// Every group a controller-sweep bench reads (suitePlan + scaledBaseline
/// + runSuite): --csv, the suite, the baseline and the jobs options.
void addSweepOptions(OptionSet &Opts);

/// Table 2's configuration with the optimization latency rescaled to the
/// harness's compressed run lengths (the paper's 1,000,000 instructions is
/// negligible against billion-instruction sites but would dominate our
/// ~1/300-length runs; --opt-latency overrides, and the fig5/fig8 latency
/// sweeps restore the paper's values explicitly).  Needs
/// addBaselineOptions; reads both through readCount with Min 0.
core::ReactiveConfig scaledBaseline(const OptionSet &Opts);

/// Reads back every standard option group that was registered.  A value
/// no run can honor (a --jobs that is negative or above UINT_MAX, a
/// negative --seed, an unknown --benchmarks name or a --benchmarks list
/// that names none, a scale readScale rejects) prints an `error:` line
/// and exits with status 2, like the option parser's own errors.
SuiteOptions readSuiteOptions(const OptionSet &Opts);

/// Mixes --seed into \p Spec's workload seed, so a nonzero seed changes
/// the generated streams.  \p Index is the benchmark's position in
/// workload::suiteProfiles() (0 for a workload outside the suite), so a
/// stream does not depend on which other benchmarks run.  Seed 0 leaves
/// the spec unchanged.
void seedWorkload(workload::WorkloadSpec &Spec, uint64_t Seed,
                  uint32_t Index);

/// Builds the selected benchmarks (all twelve by default), each seeded by
/// seedWorkload.
std::vector<workload::WorkloadSpec> selectedSuite(const SuiteOptions &Opt);

/// The selected calibration profiles (for benches that work from profiles
/// rather than workload specs).
std::vector<workload::BenchmarkProfile>
selectedProfiles(const SuiteOptions &Opt);

/// Starts an experiment plan over the selected suite: one benchmark axis
/// per selected workload (reference input) and the base seed from --seed.
/// The bench adds its controller configs (and an arena, if its columns
/// share traces) and runs it with runSuite.
engine::ExperimentPlan suitePlan(const SuiteOptions &Opt);

/// Executes \p Plan with --jobs workers.
engine::RunReport runSuite(const engine::ExperimentPlan &Plan,
                           const SuiteOptions &Opt);

/// Starts an MSSP experiment plan: one benchmark axis per selected
/// calibration profile, carrying only the benchmark's name (MSSP cells
/// read no branch trace), base seed from --seed.  The bench adds task
/// columns with addTaskConfig whose runners synthesize via msspSynthSpec,
/// and executes the grid with runSuite.
engine::ExperimentPlan msspSuitePlan(const SuiteOptions &Opt);

/// The cell's synthesis spec, from the calibration profile its axis
/// names: a function of the benchmark and --seed alone, so every column
/// of a benchmark simulates one program.  Seed 0 gives the reference
/// program; a nonzero --seed perturbs it as seedWorkload perturbs a
/// trace, by the seed and the benchmark's index in
/// workload::suiteProfiles().
workload::SynthSpec msspSynthSpec(const engine::CellContext &Ctx,
                                  uint64_t Iterations);

/// One controller column's suite averages over a plan's reference-input
/// cells: rates summed in benchmark order and divided by the benchmark
/// count, request counts summed.
struct SuiteAverage {
  double Correct = 0;
  double Incorrect = 0;
  uint64_t Requests = 0; ///< deploy + revoke requests
  uint64_t Suppressed = 0;
};

/// The suite averages of column \p Config over the first \p NumBenchmarks
/// benchmarks of \p Report.
SuiteAverage suiteAverage(const engine::RunReport &Report,
                          size_t NumBenchmarks, uint32_t Config);

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
