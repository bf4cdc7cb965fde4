//===- workload/SpecSuite.h - The 12 calibrated benchmarks ------*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Constructs the twelve synthetic benchmarks standing in for the paper's
/// SPEC2000 integer suite (bzip2, crafty, eon, gap, gcc, gzip, mcf, parser,
/// perl, twolf, vortex, vpr).  Each is calibrated against the paper's
/// per-benchmark data:
///
///  * run length          <- Table 1's "Len" column, scaled down (see
///                           SuiteScale) to keep runs laptop-sized;
///  * static-branch counts<- Table 3's "touch" column, scaled;
///  * % dynamic branches from highly-biased statics <- Table 3's "% spec";
///  * counts of behavior-changing statics <- Table 3's eviction columns;
///  * input fragility     <- Table 1's input notes (crafty/parser/perl/vpr
///                           are the parameterizable worst offenders);
///  * correlated flip groups <- Fig. 9 (vortex strongest, ~half the suite
///                           to a lesser extent);
///  * low-frequency periodic branches <- the gzip/mcf behavior that lets
///                           reactive control beat static self-training.
///
/// Everything is deterministic in the per-benchmark seed.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_WORKLOAD_SPECSUITE_H
#define SPECCTRL_WORKLOAD_SPECSUITE_H

#include "workload/Workload.h"

#include <string>
#include <vector>

namespace specctrl {
namespace workload {

/// Global scale factors applied to every benchmark.  The defaults shrink
/// the paper's multi-billion-instruction runs and their static branch
/// populations by documented factors while preserving the per-site
/// execution-count dynamics the controller reacts to.
struct SuiteScale {
  /// Branch events generated per billion paper-run instructions.  The
  /// paper's runs retire ~180M branches per billion instructions; the
  /// default keeps ~1/300 of that.
  double EventsPerBillion = 6.0e5;
  /// Fraction of the paper's static branch population instantiated.
  double SiteScale = 0.25;

  /// The first rule this scale breaks, as a message; empty if it breaks
  /// none.  Both factors must be finite and > 0, every count
  /// makeBenchmark derives for a suite profile must fit the integer it is
  /// stored in (the run length RefEvents, the event floor, the scaled
  /// site counts), and each scaled static population must fit an SCT2
  /// trace's site ids (TraceFileLimits::MaxSite + 1 sites).  That caps
  /// the largest site table (gcc's) near 1 GiB; memory is not bounded
  /// otherwise: makeBenchmark holds one site record per scaled static.
  /// makeBenchmark checks its own profile against the same rules in
  /// every build.
  std::string validate() const;
};

/// Paper-derived calibration targets for one benchmark (Tables 1 and 3).
struct BenchmarkProfile {
  std::string Name;
  double PaperLenBillions;  ///< Table 1 "Len" (instructions, billions)
  uint32_t PaperTouch;      ///< Table 3 "touch" (static branches)
  uint32_t PaperBias;       ///< Table 3 "bias"  (statics entering biased)
  uint32_t PaperEvictStatics; ///< Table 3 "evict"
  uint32_t PaperTotalEvicts;  ///< Table 3 "total evicts"
  double PaperSpecShare;    ///< Table 3 "% spec." (0..1)
  /// How strongly this program's branch predicates depend on input
  /// parameters (0..1); drives InputDependent site counts.
  double InputFragility;
  /// Relative abundance of low-frequency periodic branches (gzip/mcf).
  double PeriodicRichness;
  /// Number of correlated flip groups (vortex-style, Fig. 9).
  unsigned CorrelatedGroups;
};

/// Returns the calibration profiles of all twelve benchmarks in the
/// paper's table order.
const std::vector<BenchmarkProfile> &suiteProfiles();

/// Returns the suiteProfiles() element with the given name; throws
/// std::invalid_argument naming the valid names when there is none.
const BenchmarkProfile &profileByName(const std::string &Name);

/// Builds the full WorkloadSpec for \p Profile under \p Scale.  Throws
/// std::invalid_argument naming the broken rule when a count it derives
/// does not fit (see SuiteScale::validate).
WorkloadSpec makeBenchmark(const BenchmarkProfile &Profile,
                           const SuiteScale &Scale = SuiteScale());

/// Convenience: builds a benchmark by name.
WorkloadSpec makeBenchmark(const std::string &Name,
                           const SuiteScale &Scale = SuiteScale());

/// Builds every benchmark in suite order.
std::vector<WorkloadSpec> makeSuite(const SuiteScale &Scale = SuiteScale());

struct SynthSpec;

/// Builds a synthesizable (SimIR) program spec whose branch population
/// mirrors \p Profile's character -- biased share from "% spec",
/// behavior-changing sites from the eviction columns, exploitable periodic
/// sites where PeriodicRichness is high, and a couple of Fig. 1-style
/// value-check gadgets.  Used by the MSSP experiments (Figs. 7-8), which
/// execute real code rather than abstract traces.
SynthSpec makeSynthSpecFor(const BenchmarkProfile &Profile,
                           uint64_t Iterations);

} // namespace workload
} // namespace specctrl

#endif // SPECCTRL_WORKLOAD_SPECSUITE_H
