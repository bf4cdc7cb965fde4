//===- bench/Table4Experiment.h - Shared Table 4 sweep ----------*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Table 4 model-sensitivity sweep as a reusable experiment: the
/// variant list (paper values included), the rescaling every sensitivity
/// variant shares with Fig. 5, the plan construction, and the report
/// formatting.  bench/table4_sensitivity runs it through the engine;
/// perfbench's sweep workload runs the same variants.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_BENCH_TABLE4EXPERIMENT_H
#define SPECCTRL_BENCH_TABLE4EXPERIMENT_H

#include "BenchCommon.h"

#include <iosfwd>

namespace specctrl {
namespace bench {

/// The banner every Table 4 binary prints (via printBanner) before
/// running the grid.
inline constexpr const char *Table4Title = "Table 4";
inline constexpr const char *Table4Detail =
    "model sensitivity: suite-average correct and incorrect rates per "
    "configuration (paper values in parentheses)";

/// One model configuration row, with the paper's reported rates ("-" for
/// ablation rows the paper has no numbers for).
struct Table4Variant {
  std::string Name;
  core::ReactiveConfig Config;
  const char *PaperCorrect;
  const char *PaperIncorrect;
};

/// A Sec. 3.3 sensitivity variant rescaled to \p Base, the scaled
/// baseline: Base's optimization latency; Base's wait period, or a tenth
/// of it where the variant itself shortens the wait (frequent revisit);
/// and, for eviction by sampling, a window shrunk to the compressed site
/// lifetimes at the paper's 10% duty cycle.  Table 4 and Fig. 5 build
/// their variants through it.
core::ReactiveConfig withBaseLatency(const core::ReactiveConfig &Base,
                                     core::ReactiveConfig Variant);

/// The Table 4 variant list under \p Base (the scaled baseline from the
/// standard options).  \p NoOscillationLimit appends the Sec. 3.1
/// oscillation-limit ablation row.
std::vector<Table4Variant> table4Variants(const core::ReactiveConfig &Base,
                                          bool NoOscillationLimit);

/// Builds the (benchmark x variant) grid: suitePlan(Opt) plus one
/// controller column per variant.
engine::ExperimentPlan table4Plan(const SuiteOptions &Opt,
                                  const std::vector<Table4Variant> &Variants);

/// Formats \p Report into the Table 4 rows (suite averages sorted by
/// correct rate) and renders them to \p OS.  \p NumBenchmarks is the
/// plan's benchmark-axis size.
void printTable4Report(std::ostream &OS, const engine::RunReport &Report,
                       const std::vector<Table4Variant> &Variants,
                       size_t NumBenchmarks, bool Csv);

} // namespace bench
} // namespace specctrl

#endif // SPECCTRL_BENCH_TABLE4EXPERIMENT_H
