//===- support/RunConfig.h - Process-wide run configuration -----*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single typed carrier for cross-cutting run knobs.  The environment
/// is parsed exactly once into RunConfig::global(), and libraries read the
/// parsed struct instead of calling getenv.
///
/// Canonical environment variables:
///
///   SPECCTRL_VERIFY=1            deploy-time distill verification gate
///   SPECCTRL_ARENA_VERBOSE=1     per-materialization and per-release
///                                trace-arena logging
///
/// Removed variables (SPECCTRL_VERIFY_DISTILL, SPECCTRL_ARENA_DEBUG,
/// SPECCTRL_TRACE_MMAP, SPECCTRL_SWEEP_PROCS, SPECCTRL_SERVE_EPOCH_EVENTS,
/// SPECCTRL_SERVE_RING_EVENTS, SPECCTRL_VERIFY_SPECLEAK) are not read; a
/// one-line warning says so when one is set, so a script relying on one
/// learns it has no effect.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_SUPPORT_RUNCONFIG_H
#define SPECCTRL_SUPPORT_RUNCONFIG_H

#include <string>

namespace specctrl {

/// Typed run configuration, parsed once per process.
struct RunConfig {
  /// Deploy-time static speculation-safety verification: the distiller,
  /// code cache, and execution engine verify every code version before it
  /// can be dispatched (analysis/DistillVerifier.h).
  bool VerifyDistill = false;
  /// Per-materialization trace-arena logging to stderr.
  bool ArenaVerbose = false;

  /// Parses the environment.  Pure: no warnings are printed; when
  /// \p Warnings is non-null a note for each removed variable that is set
  /// is appended to it, one per line.
  static RunConfig fromEnv(std::string *Warnings = nullptr);

  /// The process-wide configuration.  First use parses the environment
  /// (printing any warnings to stderr once); later reads are plain loads.
  static const RunConfig &global();
};

} // namespace specctrl

#endif // SPECCTRL_SUPPORT_RUNCONFIG_H
